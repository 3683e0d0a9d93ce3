package core

import (
	"fmt"
	"math"

	"lcpio/internal/advisor"
	"lcpio/internal/fpdata"
)

// AdvisorConfig frames the practical question an I/O-phase owner asks: "I
// must dump this much data and keep at least this reconstruction quality —
// which codec and error bound cost the least energy?" It extends the
// paper's tuning rule from frequencies to the full (codec, bound,
// frequency) configuration space.
type AdvisorConfig struct {
	// TotalBytes to dump; 0 means 512 GiB.
	TotalBytes int64
	// Chip; empty means Broadwell.
	Chip string
	// Dataset whose statistics drive ratio/quality measurement; empty
	// means NYX.
	Dataset string
	// MinPSNR is the quality floor in dB the reconstruction must meet.
	MinPSNR float64
	// CandidateBounds are the range-relative bounds to consider; nil
	// means the paper's four.
	CandidateBounds []float64
	// Tuning rule applied to each candidate; zero means Eqn 3.
	Tuning Recommendation
}

// Advice is one evaluated configuration.
type Advice struct {
	Codec   string
	EB      float64 // range-relative
	PSNR    float64 // measured on the sample field
	Ratio   float64
	EnergyJ float64 // tuned compress+write energy for TotalBytes
	Seconds float64
	Meets   bool // satisfies the PSNR floor
}

func (a Advice) String() string {
	status := "below target"
	if a.Meets {
		status = "ok"
	}
	return fmt.Sprintf("%-4s eb=%-6g PSNR=%5.1f dB ratio=%6.2f energy=%8.1f kJ (%s)",
		a.Codec, a.EB, a.PSNR, a.Ratio, a.EnergyJ/1e3, status)
}

// Advise evaluates every (codec, bound) candidate on a sample field,
// models the tuned dump energy for the full volume, and returns all
// candidates sorted by energy with the quality verdict attached. The first
// entry with Meets=true is the recommendation. The measurement and pricing
// live in advisor.EvaluateGrid — this is the static slice of the online
// controller's search space.
func Advise(cfg Config, acfg AdvisorConfig) ([]Advice, error) {
	cfg = cfg.normalized()
	if acfg.Dataset == "" {
		acfg.Dataset = "NYX"
	}
	spec, err := fpdata.Lookup(acfg.Dataset, "")
	if err != nil {
		return nil, err
	}
	field := fpdata.Generate(spec, spec.ScaleFor(cfg.RatioElems), cfg.Seed)
	// EvaluateGrid applies the remaining defaults (512 GiB, Broadwell, the
	// default mount, the paper's bounds and Eqn 3).
	grid, err := advisor.EvaluateGrid(field.Data, field.Dims, advisor.GridOptions{
		TotalBytes:          acfg.TotalBytes,
		Chip:                acfg.Chip,
		MinPSNR:             acfg.MinPSNR,
		Codecs:              cfg.Codecs,
		Bounds:              acfg.CandidateBounds,
		CompressionFraction: acfg.Tuning.CompressionFraction,
		WritingFraction:     acfg.Tuning.WritingFraction,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	out := make([]Advice, 0, len(grid))
	for _, e := range grid {
		out = append(out, Advice{
			Codec:   e.Codec,
			EB:      e.RelEB,
			PSNR:    e.PSNR,
			Ratio:   e.Ratio,
			EnergyJ: e.EnergyJ,
			Seconds: e.Seconds,
			Meets:   e.Meets,
		})
	}
	return out, nil
}

// Recommend returns the least-energy advice meeting the quality floor, or
// an error naming the closest candidate when none qualifies.
func Recommend(cfg Config, acfg AdvisorConfig) (Advice, error) {
	all, err := Advise(cfg, acfg)
	if err != nil {
		return Advice{}, err
	}
	for _, a := range all {
		if a.Meets {
			return a, nil
		}
	}
	best := Advice{PSNR: math.Inf(-1)}
	for _, a := range all {
		if a.PSNR > best.PSNR {
			best = a
		}
	}
	return Advice{}, fmt.Errorf("core: no candidate reaches %.1f dB; best was %s at eb=%g with %.1f dB",
		acfg.MinPSNR, best.Codec, best.EB, best.PSNR)
}
