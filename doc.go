// Package repro is a from-scratch reproduction of "Three-Dimensional
// Memory Vectorization for High Bandwidth Media Memory Systems" (Corbal,
// Espasa, Valero — MICRO-35, 2002).
//
// The repository contains the complete system the paper evaluates:
//
//   - the MOM 2D matrix ISA, an MMX-like μSIMD baseline, and the paper's
//     3D memory vectorization extension (internal/isa, internal/usimd);
//   - a functional emulator and trace builder (internal/emu,
//     internal/prog) standing in for the authors' ATOM methodology;
//   - five Mediabench-derived benchmarks, each hand-vectorized for the
//     three ISAs and verified bit-exact against scalar references
//     (internal/kernels, internal/media);
//   - the cache hierarchy and the three vector memory subsystems —
//     multi-banked, vector cache, vector cache + 3D register file
//     (internal/cache, internal/vmem);
//   - a banked SDRAM main-memory controller behind the L2 with
//     row-buffer timing, configurable address mappings, FCFS/FR-FCFS
//     scheduling and refresh, alongside the paper's flat-latency model
//     as the fixed backend (internal/dram); every L2 miss reaches the
//     backend through an MSHR file, whose 1-entry form is the blocking
//     model;
//   - an 8-way out-of-order cycle simulator in MMX and MOM
//     configurations (internal/core), standing in for Jinks;
//   - the Rixner register-file area model reproducing Table 3 exactly
//     (internal/vreg) and a calibrated power model (internal/power);
//   - experiment drivers that regenerate every table and figure of the
//     paper's evaluation (internal/experiments, cmd/momexp);
//   - whole-pipeline observability (internal/stats): a registered-stats
//     registry behind momsim -statsjson, CPI-stack cycle attribution
//     (momsim -cpistack, momexp -cpisweep) whose buckets sum to the
//     cycle count exactly on both engines, causal span/flow tracing to
//     Chrome trace JSON (momsim -trace, ring sized by -tracebuf, drops
//     surfaced via the trace.dropped gauge), an interval time-series
//     sampler (momsim -sample/-samplejson), and a machine-readable
//     instruction-mix export (momtrace -json).
//
// The benchmarks in bench_test.go regenerate each table and figure; see
// EXPERIMENTS.md for paper-vs-measured values and DESIGN.md for the
// system inventory and substitutions.
package repro
