package core

import "math/rand"

// Variant names the Figure 7 ablation axes.
type Variant string

const (
	// VariantFull is the complete TTP.
	VariantFull Variant = "Full TTP"
	// VariantPointEstimate collapses the output to its argmax
	// ("Point Estimate" in Figure 7).
	VariantPointEstimate Variant = "Point Estimate"
	// VariantThroughput predicts throughput regardless of chunk size
	// ("Throughput Predictor" in Figure 7).
	VariantThroughput Variant = "Throughput Predictor"
	// VariantLinear replaces the DNN with a single affine layer
	// ("Linear" in Figure 7).
	VariantLinear Variant = "Linear"
	// VariantNoTCPInfo removes the tcp_info inputs.
	VariantNoTCPInfo Variant = "No tcp_info"
	// VariantShortHistory shrinks the history from 8 chunks to 2.
	VariantShortHistory Variant = "History of 2"
)

// AllVariants lists the Figure 7 rows in presentation order.
func AllVariants() []Variant {
	return []Variant{
		VariantFull, VariantPointEstimate, VariantThroughput,
		VariantLinear, VariantNoTCPInfo, VariantShortHistory,
	}
}

// NewVariantTTP constructs the untrained one-step TTP for an ablation
// variant: Figure 7 scores the next chunk's prediction. The point-estimate
// variant shares the full TTP's architecture (the collapse happens at
// prediction time via ModePointEstimate).
func NewVariantTTP(rng *rand.Rand, v Variant) *TTP {
	cfg := DefaultFeatures()
	hidden := DefaultHidden
	kind := KindTransTime
	switch v {
	case VariantFull, VariantPointEstimate:
	case VariantThroughput:
		cfg.UseProposedSize = false
		kind = KindThroughput
	case VariantLinear:
		hidden = []int{}
	case VariantNoTCPInfo:
		cfg.UseTCPInfo = false
	case VariantShortHistory:
		cfg.HistLen = 2
	default:
		panic("core: unknown TTP variant " + string(v))
	}
	return NewTTP(rng, 1, hidden, cfg, kind)
}

// VariantMode returns the prediction mode a variant uses in the controller.
func VariantMode(v Variant) Mode {
	if v == VariantPointEstimate {
		return ModePointEstimate
	}
	return ModeProbabilistic
}
