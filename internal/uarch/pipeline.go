package uarch

// CoreModel describes one pipeline configuration for the Fig. 2c sweep:
// 2-wide in-order, and 2/4/8-wide out-of-order.
type CoreModel struct {
	Name       string
	Width      int
	OutOfOrder bool
}

// CoreModels returns the four configurations the paper compares.
func CoreModels() []CoreModel {
	return []CoreModel{
		{Name: "2-wide in-order", Width: 2, OutOfOrder: false},
		{Name: "2-wide OoO", Width: 2, OutOfOrder: true},
		{Name: "4-wide OoO", Width: 4, OutOfOrder: true},
		{Name: "8-wide OoO", Width: 8, OutOfOrder: true},
	}
}

// PipelineCosts holds the penalty constants of the analytical throughput
// model.
type PipelineCosts struct {
	BranchMispredict float64 // full pipeline flush
	BTBMissBubble    float64 // fetch redirect bubble for a taken branch
	L1Miss           float64 // L1 miss, L2 hit latency
	L2Miss           float64 // memory latency
}

// DefaultPipelineCosts returns Xeon-like penalties.
func DefaultPipelineCosts() PipelineCosts {
	return PipelineCosts{BranchMispredict: 14, BTBMissBubble: 7, L1Miss: 11, L2Miss: 95}
}

// StreamStats aggregates per-instruction event rates measured by the
// models on a synthesized stream.
type StreamStats struct {
	Instructions int64
	BranchMPKI   float64 // conditional branch mispredicts per 1K instrs
	BTBMissPKI   float64 // taken-branch target misses per 1K instrs
	L1IMPKI      float64
	L1DMPKI      float64
	L2MPKI       float64
	BTBHitRate   float64
}

// ExecCycles estimates execution cycles for the stream on the given core.
// Out-of-order cores overlap a large share of data-miss and bubble
// latency; in-order cores expose it. The ILP parameter caps the useful
// issue width, which is what makes the 4-to-8-wide step nearly flat
// (<3% in the paper).
func ExecCycles(core CoreModel, ilp float64, s StreamStats, costs PipelineCosts) float64 {
	n := float64(s.Instructions)

	// Base throughput: the narrower of machine width and program ILP.
	effWidth := float64(core.Width)
	if ilp < effWidth {
		effWidth = ilp
	}
	if !core.OutOfOrder {
		// In-order issue loses slots to dependency stalls.
		effWidth *= 0.62
	}
	cycles := n / effWidth

	// Front-end penalties are exposed on any core.
	cycles += n / 1000 * s.BranchMPKI * costs.BranchMispredict
	cycles += n / 1000 * s.BTBMissPKI * costs.BTBMissBubble
	cycles += n / 1000 * s.L1IMPKI * costs.L1Miss

	// Data-side penalties are partially hidden by out-of-order execution.
	hide := 0.25
	if core.OutOfOrder {
		hide = 0.25 + 0.12*float64(core.Width) // deeper windows hide more
		if hide > 0.75 {
			hide = 0.75
		}
	}
	cycles += n / 1000 * s.L1DMPKI * costs.L1Miss * (1 - hide)
	cycles += n / 1000 * s.L2MPKI * costs.L2Miss * (1 - hide)
	return cycles
}
