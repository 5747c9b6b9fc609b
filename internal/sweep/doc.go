// Package sweep turns one declarative grid description into many concrete
// experiments and runs exactly the ones the results warehouse is missing.
//
// The paper's year-long study is really a sweep: many (scheme x
// network-condition x day) cells aggregated into one analysis. A
// sweep.Spec names a base scenario (a registered name or an inline
// scenario.Spec) plus grid axes over spec fields, each enumerating its
// values, and Expand lowers it deterministically into fully-defaulted
// scenario.Specs, each content-addressed by its canonical hash. Axis
// fields are the spec's own JSON paths ("drift.preset", "engine.kind",
// "seed", ...), applied by scenario.Spec.Set through the strict parser, so
// a typo'd field fails loudly instead of silently sweeping nothing.
//
// Execute runs the expansion against a results index: cells whose hash is
// already present are skipped (re-launching a partial sweep resumes only
// the missing cells), the rest run across a bounded worker pool — cells
// sharing a checkpoint GuardHash are serialized onto one worker so they
// can share one checkpoint directory (and therefore resume each other's
// completed days) without racing — and finished records append to the
// index in expansion order, so an interrupted sweep resumed to completion
// produces an index with the same CanonicalBytes as an uninterrupted one.
//
// The executor is generic over a CellRunner so tests can inject failures;
// InProcess, which runs cells in this process, is what cmd/puffer-sweep
// and library callers use.
package sweep
