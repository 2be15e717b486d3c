// Package lint is gatherlint's engine: the static analyzers that enforce the
// repository's determinism contract, plus the loading and reporting machinery
// that runs them over type-checked packages.
//
// The suite (Analyzers) encodes invariants that ARCHITECTURE.md states in
// prose and that the runtime test suite can only verify after the fact, when
// a pinned hash flips:
//
//   - detmaprange: no raw map iteration in determinism-contract packages
//     (collect and sort the keys, the Store.Keys idiom).
//   - nondetsource: no wall clock, environment or global math/rand reads in
//     result-producing paths; randomness flows from seeded *rand.Rand values
//     and timestamps from injected clocks.
//   - floateq: no exact float ==/!= in geometry/simulation predicates outside
//     approved exact helpers, also on structs and arrays with float fields;
//     use the Eps tolerance predicates or compare math.Float64bits.
//   - publishdiscipline: all cross-process file publication in internal/sweep
//     goes through the audited temp+hard-link/rename helpers.
//   - errclose: no discarded Close/Sync errors on store/lease write paths.
//
// Exemptions are explicit and reviewed: a "//gatherlint:ignore <analyzer>
// <reason>" comment on (or directly above) the flagged line suppresses a
// finding, and a directive without a reason suppresses nothing.
//
// Packages are loaded through the go command (`go list -deps -export`) and
// type-checked against compiler export data, so the engine needs no
// dependencies outside the standard library; the analyzer API itself is the
// x/tools-compatible subset in internal/lint/analysis. Command gatherlint is
// the CLI front end, and scripts/lint.sh the one-stop entry point CI uses.
package lint
