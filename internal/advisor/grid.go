package advisor

import (
	"fmt"
	"math"
	"sort"

	"lcpio/internal/compress"
	"lcpio/internal/dvfs"
	"lcpio/internal/machine"
	"lcpio/internal/nfs"
)

// GridOptions parameterizes the static measured grid (EvaluateGrid) — the
// pricing rule core.Advise has always used, hoisted here so the static
// recommender and the online controller share one implementation.
type GridOptions struct {
	// TotalBytes priced per candidate (0 = 512 GiB).
	TotalBytes int64
	// Chip names the dvfs model ("" = Broadwell).
	Chip string
	// Mount is the write target (zero = DefaultMount).
	Mount nfs.Mount
	// MinPSNR is the quality floor for the Meets verdict.
	MinPSNR float64
	// Codecs and Bounds span the grid (nil = {"sz","zfp"} × PaperErrorBounds).
	Codecs []string
	Bounds []float64
	// CompressionFraction/WritingFraction pin the two tuned frequencies as
	// fractions of base clock (0 = Eqn 3's 0.875 / 0.85).
	CompressionFraction float64
	WritingFraction     float64
}

// GridEntry is one measured (codec, bound) candidate priced at the tuned
// frequencies.
type GridEntry struct {
	Codec   string
	RelEB   float64
	PSNR    float64 // measured on the sample field
	Ratio   float64
	EnergyJ float64
	Seconds float64
	Meets   bool
}

// EvaluateGrid measures every (codec, bound) candidate on the sample field
// with a full compress.Evaluate and prices the tuned dump energy for the
// full volume. Results are sorted by energy ascending. This is the static
// path: no sketch, no search over workers or frequencies.
func EvaluateGrid(data []float32, dims []int, opts GridOptions) ([]GridEntry, error) {
	if opts.TotalBytes <= 0 {
		opts.TotalBytes = 512 << 30
	}
	if opts.Chip == "" {
		opts.Chip = "Broadwell"
	}
	if len(opts.Codecs) == 0 {
		opts.Codecs = []string{"sz", "zfp"}
	}
	if len(opts.Bounds) == 0 {
		opts.Bounds = append([]float64(nil), compress.PaperErrorBounds...)
	}
	if opts.CompressionFraction == 0 {
		opts.CompressionFraction = machine.CompressionFraction
	}
	if opts.WritingFraction == 0 {
		opts.WritingFraction = machine.WritingFraction
	}
	chip, err := dvfs.ChipByName(opts.Chip)
	if err != nil {
		return nil, err
	}
	node := machine.NewNode(chip, 1)
	clocks := machine.ClocksAt(chip, opts.CompressionFraction, opts.WritingFraction)

	var out []GridEntry
	for _, codecName := range opts.Codecs {
		codec, err := compress.Lookup(codecName)
		if err != nil {
			return nil, err
		}
		for _, rel := range opts.Bounds {
			eb := compress.AbsBoundFromRelative(rel, data)
			res, err := compress.Evaluate(codec, data, dims, eb)
			if err != nil {
				return nil, fmt.Errorf("advisor: grid %s/%g: %w", codecName, rel, err)
			}
			sec, joules, err := node.PriceDump(machine.Dump{
				Codec: codecName, RelEB: rel, Ratio: res.Ratio(), RawBytes: opts.TotalBytes, Mount: opts.Mount,
			}, clocks)
			if err != nil {
				return nil, err
			}
			out = append(out, GridEntry{
				Codec:   codecName,
				RelEB:   rel,
				PSNR:    res.PSNR,
				Ratio:   res.Ratio(),
				EnergyJ: joules,
				Seconds: sec,
				Meets:   res.PSNR >= opts.MinPSNR || math.IsInf(res.PSNR, 1),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EnergyJ < out[j].EnergyJ })
	return out, nil
}

// WorkerPoint is one worker count of the parallelism axis: energy and
// runtime of the compression leg at that count.
type WorkerPoint struct {
	Cores   int
	Seconds float64
	Joules  float64
}

// WorkerEnergies prices a compression job across worker counts at a fixed
// frequency — the single-axis slice of the controller's (workers × fComp)
// search, exposed for the multi-core study (`lcpio cores`).
func WorkerEnergies(chipName, codec string, totalBytes int64, relEB, ratio, freqGHz float64, maxCores int) ([]WorkerPoint, error) {
	if maxCores < 1 {
		maxCores = 8
	}
	chip, err := dvfs.ChipByName(chipName)
	if err != nil {
		return nil, err
	}
	node := machine.NewNode(chip, 1)
	out := make([]WorkerPoint, 0, maxCores)
	for n := 1; n <= maxCores; n++ {
		s, err := node.PriceLeg(machine.Dump{
			Codec: codec, RelEB: relEB, Ratio: ratio, RawBytes: totalBytes, Workers: n,
		}, "compress", machine.Clocks{CPU: freqGHz})
		if err != nil {
			return nil, err
		}
		out = append(out, WorkerPoint{Cores: n, Seconds: s.Seconds, Joules: s.Joules})
	}
	return out, nil
}
