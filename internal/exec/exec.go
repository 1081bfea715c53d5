// Package exec is the executor of the query processor: an
// Open/NextBatch/Close operator tree lowered from a physical plan
// (internal/plan). Operators exchange fixed-capacity row batches, one slot
// per tuple variable of the query: a leaf fills only its own slot, a join
// merges the outer row's slots with the inner row's, and filters keep a
// selection vector instead of copying rows. Capacity 1 is tuple-at-a-time
// on the same operators. Tuples are interpreted only by closures the
// semantic layer supplies — a leaf's Bind qualifies a tuple, a consumer's
// Rebind installs a row in the evaluation environment before Pred or Emit
// reads it; the executor itself never looks inside a tuple.
//
// Every operator carries its plan node and an Attribution tracker: page
// reads and writes observed while an operator's own code runs are charged
// to its node, so after a run the plan tree is annotated with the measured
// per-operator cost (the paper's metric, pages of I/O). The brackets are
// per batch; binding and predicate evaluation cause no page I/O, so the
// per-operator page sums do not depend on the capacity.
package exec
