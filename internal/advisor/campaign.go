package advisor

import (
	"fmt"

	"lcpio/internal/machine"
	"lcpio/internal/phases"
)

// Campaign materializes a decision as an executable phases.Plan: n
// iterations of compute followed by the decision's dump legs (dedup,
// compress, verify, write, parity-write — whichever its axes enable), with
// the decision's worker count and frequency pair pinned on the phases.
// Executing the plan attributes exact joules to obs spans, which is how
// campaign energy reconciles against the decision's CompressJoules +
// WriteJoules.
func (c *Controller) Campaign(dec Decision, n int, computeSec float64) (phases.Plan, error) {
	if dec.raw <= 0 {
		return phases.Plan{}, fmt.Errorf("advisor: decision was not produced by Decide")
	}
	ax := axes{delta: dec.Delta, wire: dec.WireCompress, parity: dec.ParityRanks}
	legs, err := c.dump(dec.Codec, dec.RelEB, dec.Predicted.Ratio, dec.raw, ax, dec.req, dec.Workers).Legs(c.chip)
	if err != nil {
		return phases.Plan{}, err
	}
	return phases.Campaign(n, computeSec, "advisor", legs, machine.Clocks{CPU: dec.CompressGHz, IO: dec.WriteGHz}), nil
}
