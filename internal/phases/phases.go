// Package phases plans and evaluates multi-phase application campaigns —
// the operational form of the paper's recommendation. An HPC job alternates
// compute phases with I/O phases (compress, write, read, decompress); Eqn 3
// says each phase class should run at its own fraction of base clock. A
// Plan assigns frequencies per phase, Execute totals time and energy on a
// simulated node, and ApplyRule rewrites a plan according to a tuning rule
// so baseline-vs-tuned campaigns (like the checkpoint/restart studies of
// Moran et al., the paper's reference [12]) are one call apart.
package phases

import (
	"fmt"
	"strconv"

	"lcpio/internal/dvfs"
	"lcpio/internal/machine"
	"lcpio/internal/obs"
)

// Class labels what a phase does, which determines its tuning treatment.
type Class int

const (
	// Compute is latency-critical application work: never down-clocked.
	Compute Class = iota
	// Compression covers compress and decompress phases (Eqn 3: 0.875).
	Compression
	// Writing covers NFS writes and reads (Eqn 3: 0.85).
	Writing
)

func (c Class) String() string {
	switch c {
	case Compute:
		return "compute"
	case Compression:
		return "compression"
	case Writing:
		return "writing"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Phase is one step of a campaign.
type Phase struct {
	Name  string
	Class Class
	// Workload for Compression/Writing phases (built by the machine
	// package); ignored for Compute.
	Workload machine.Workload
	// ComputeSeconds is the duration of a Compute phase at base clock.
	ComputeSeconds float64
	// FreqGHz is the frequency this phase runs at; 0 means base clock.
	FreqGHz float64
	// Repeat runs the phase this many times; 0 means once.
	Repeat int
}

func (p Phase) repeats() int {
	if p.Repeat <= 0 {
		return 1
	}
	return p.Repeat
}

// Plan is an ordered campaign.
type Plan struct {
	Phases []Phase
}

// Rule maps phase classes to base-clock fractions.
type Rule struct {
	CompressionFraction float64
	WritingFraction     float64
}

// PaperRule is Eqn 3.
func PaperRule() Rule {
	return Rule{CompressionFraction: machine.CompressionFraction, WritingFraction: machine.WritingFraction}
}

func (r Rule) String() string {
	return fmt.Sprintf("f_IO = %.3f*f_max (compression), %.3f*f_max (data writing)",
		r.CompressionFraction, r.WritingFraction)
}

// Clocks is the rule's clock pair on chip.
func (r Rule) Clocks(chip *dvfs.Chip) machine.Clocks {
	return machine.ClocksAt(chip, r.CompressionFraction, r.WritingFraction)
}

// ApplyRule returns a copy of the plan with each phase's frequency set
// according to the rule on the given chip (compute stays at base clock).
func (pl Plan) ApplyRule(rule Rule, chip *dvfs.Chip) Plan {
	out := Plan{Phases: make([]Phase, len(pl.Phases))}
	copy(out.Phases, pl.Phases)
	clocks := rule.Clocks(chip)
	for i := range out.Phases {
		switch out.Phases[i].Class {
		case Compression:
			out.Phases[i].FreqGHz = clocks.CPU
		case Writing:
			out.Phases[i].FreqGHz = clocks.IO
		default:
			out.Phases[i].FreqGHz = chip.BaseGHz
		}
	}
	return out
}

// Totals is the outcome of executing a plan.
type Totals struct {
	Seconds float64
	Joules  float64
	// Per-class splits for reporting.
	ByClass map[Class]ClassTotals
}

// ClassTotals accumulates one class's share.
type ClassTotals struct {
	Seconds float64
	Joules  float64
}

// AvgWatts is campaign energy over campaign time.
func (t Totals) AvgWatts() float64 {
	if t.Seconds <= 0 {
		return 0
	}
	return t.Joules / t.Seconds
}

// Execute runs the plan on the node (deterministically, without measurement
// noise) and totals time and energy.
func (pl Plan) Execute(node *machine.Node) (Totals, error) {
	chip := node.Chip
	espan := obs.Start("phases.execute")
	defer espan.End()
	tot := Totals{ByClass: map[Class]ClassTotals{}}
	for _, p := range pl.Phases {
		f := p.FreqGHz
		if f == 0 {
			f = chip.BaseGHz
		}
		pspan := obs.Start("phases.phase")
		if pspan.Enabled() {
			pspan.SetAttr("name", p.Name)
			pspan.SetAttr("class", p.Class.String())
			pspan.SetAttr("freq_ghz", strconv.FormatFloat(f, 'g', 4, 64))
		}
		var sec, joule float64
		switch p.Class {
		case Compute:
			if p.ComputeSeconds < 0 {
				pspan.End()
				return Totals{}, fmt.Errorf("phases: negative compute duration in %q", p.Name)
			}
			// Compute phases are fully core-bound; duration scales with
			// frequency like any CPU-bound region.
			sec = p.ComputeSeconds * chip.BaseGHz / chip.ClampFreq(f)
			joule = chip.BusyPower(chip.ClampFreq(f)) * sec
		case Compression, Writing:
			s := node.RunClean(p.Workload, f)
			sec, joule = s.Seconds, s.Joules
		default:
			pspan.End()
			return Totals{}, fmt.Errorf("phases: unknown class %v in %q", p.Class, p.Name)
		}
		n := float64(p.repeats())
		tot.Seconds += sec * n
		tot.Joules += joule * n
		ct := tot.ByClass[p.Class]
		ct.Seconds += sec * n
		ct.Joules += joule * n
		tot.ByClass[p.Class] = ct
		// Attribute the phase's exact simulated energy to its span, so the
		// trace's root rollup reconciles with Totals.Joules.
		pspan.AddEnergy(joule * n)
		pspan.End()
		obs.Add("lcpio_campaign_phases_total", int64(p.repeats()))
		obs.AddFloat("lcpio_campaign_sim_seconds_total", sec*n)
		obs.AddFloat("lcpio_campaign_sim_joules_total", joule*n)
	}
	return tot, nil
}

// Comparison contrasts a plan at base clock against a tuned rule.
type Comparison struct {
	Base  Totals
	Tuned Totals
}

// EnergySavedPct is the campaign-level energy saving.
func (c Comparison) EnergySavedPct() float64 {
	if c.Base.Joules <= 0 {
		return 0
	}
	return 100 * (c.Base.Joules - c.Tuned.Joules) / c.Base.Joules
}

// RuntimeIncreasePct is the campaign-level slowdown.
func (c Comparison) RuntimeIncreasePct() float64 {
	if c.Base.Seconds <= 0 {
		return 0
	}
	return 100 * (c.Tuned.Seconds/c.Base.Seconds - 1)
}

// Compare executes the plan at base clock and under the rule.
func Compare(pl Plan, rule Rule, node *machine.Node) (Comparison, error) {
	base, err := pl.ApplyRule(Rule{CompressionFraction: 1, WritingFraction: 1}, node.Chip).Execute(node)
	if err != nil {
		return Comparison{}, err
	}
	tuned, err := pl.ApplyRule(rule, node.Chip).Execute(node)
	if err != nil {
		return Comparison{}, err
	}
	return Comparison{Base: base, Tuned: tuned}, nil
}

// Campaign builds n iterations of a compute phase followed by one phase per
// dump leg, named prefix-leg (machine.Dump names the legs). CPU legs are
// Compression-class and I/O legs Writing-class, so ApplyRule tunes them to
// Eqn 3's two clocks. Non-zero clocks pin the legs' frequencies instead —
// the advisor runs its searched operating point this way, and ApplyRule
// would overwrite it.
func Campaign(n int, computeSec float64, prefix string, legs []machine.Leg, clocks machine.Clocks) Plan {
	phases := make([]Phase, 0, 1+len(legs))
	phases = append(phases, Phase{Name: "compute", Class: Compute, ComputeSeconds: computeSec, Repeat: n})
	for _, l := range legs {
		p := Phase{Name: prefix + "-" + l.Name, Class: Compression, Workload: l.Work, FreqGHz: clocks.CPU, Repeat: n}
		if l.Class == machine.IO {
			p.Class, p.FreqGHz = Writing, clocks.IO
		}
		phases = append(phases, p)
	}
	return Plan{Phases: phases}
}
