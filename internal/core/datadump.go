package core

import (
	"fmt"

	"lcpio/internal/compress"
	"lcpio/internal/dvfs"
	"lcpio/internal/fpdata"
	"lcpio/internal/machine"
	"lcpio/internal/nfs"
	"lcpio/internal/obs"
)

// DumpConfig describes the Section VI-B use case: compress a large field
// with SZ and push it to an NFS mount, with and without Eqn 3 tuning.
type DumpConfig struct {
	// TotalBytes of uncompressed data; 0 means the paper's 512 GB.
	TotalBytes int64
	// Chip to run on; empty means Broadwell (the paper's model chip).
	Chip string
	// Codec; empty means "sz" as in the paper.
	Codec string
	// Dataset whose statistics set the compression ratio; empty means NYX
	// (the paper concatenates NYX velocity-x snapshots).
	Dataset string
	// Tuning rule; zero value means PaperRecommendation.
	Tuning Recommendation
	// Mount; zero value means nfs.DefaultMount.
	Mount nfs.Mount
}

func (d DumpConfig) normalized() DumpConfig {
	if d.TotalBytes <= 0 {
		d.TotalBytes = 512 << 30
	}
	if d.Chip == "" {
		d.Chip = "Broadwell"
	}
	if d.Codec == "" {
		d.Codec = "sz"
	}
	if d.Dataset == "" {
		d.Dataset = "NYX"
	}
	if d.Tuning.CompressionFraction == 0 {
		d.Tuning = PaperRecommendation()
	}
	if d.Mount.WSize == 0 {
		d.Mount = nfs.DefaultMount()
	}
	return d
}

// DumpResult is one bar group of Figure 6: total energy at base clock
// versus the tuned schedule, per error bound.
type DumpResult struct {
	EB              float64 // range-relative error bound
	Ratio           float64 // measured compression ratio
	CompressedBytes int64

	BaseCompressJ  float64
	BaseTransitJ   float64
	TunedCompressJ float64
	TunedTransitJ  float64

	BaseSeconds  float64
	TunedSeconds float64
}

// BaseTotalJ is the untuned total energy.
func (r DumpResult) BaseTotalJ() float64 { return r.BaseCompressJ + r.BaseTransitJ }

// TunedTotalJ is the tuned total energy.
func (r DumpResult) TunedTotalJ() float64 { return r.TunedCompressJ + r.TunedTransitJ }

// SavedJ is the absolute energy saving.
func (r DumpResult) SavedJ() float64 { return r.BaseTotalJ() - r.TunedTotalJ() }

// SavedPct is the relative energy saving in percent.
func (r DumpResult) SavedPct() float64 {
	if r.BaseTotalJ() <= 0 {
		return 0
	}
	return 100 * r.SavedJ() / r.BaseTotalJ()
}

func (r DumpResult) String() string {
	return fmt.Sprintf("eb=%g ratio=%.1f: base %.1f kJ -> tuned %.1f kJ (saved %.1f kJ, %.1f%%)",
		r.EB, r.Ratio, r.BaseTotalJ()/1e3, r.TunedTotalJ()/1e3, r.SavedJ()/1e3, r.SavedPct())
}

// RunDataDump reproduces Figure 6: for each error bound, measure the real
// codec's compression ratio on a scaled field, model compressing TotalBytes
// and writing the compressed output over NFS, at base clock and at the
// tuned frequencies, and report the energy split.
func RunDataDump(cfg Config, dcfg DumpConfig) ([]DumpResult, error) {
	bounds, err := priceBounds(cfg, dcfg, "core.datadump", "compress", "write")
	if err != nil {
		return nil, err
	}
	out := make([]DumpResult, 0, len(bounds))
	for _, b := range bounds {
		out = append(out, DumpResult{
			EB: b.relEB, Ratio: b.ratio, CompressedBytes: b.payload,
			BaseCompressJ: b.base[0].Joules, BaseTransitJ: b.base[1].Joules,
			TunedCompressJ: b.tuned[0].Joules, TunedTransitJ: b.tuned[1].Joules,
			BaseSeconds:  b.base[0].Seconds + b.base[1].Seconds,
			TunedSeconds: b.tuned[0].Seconds + b.tuned[1].Seconds,
		})
	}
	return out, nil
}

// boundCost is one error bound of a dump study: the measured ratio and
// two priced legs at base clock and at the tuned clocks.
type boundCost struct {
	relEB, ratio float64
	payload      int64
	base, tuned  [2]machine.Sample
}

// priceBounds measures the codec's compression ratio on a scaled field at
// every error bound and prices the two named legs of a TotalBytes dump at
// that ratio (machine.Dump), at base clock and under the tuning rule.
func priceBounds(cfg Config, dcfg DumpConfig, spanName, leg1, leg2 string) ([]boundCost, error) {
	cfg = cfg.normalized()
	dcfg = dcfg.normalized()
	chip, err := dvfs.ChipByName(dcfg.Chip)
	if err != nil {
		return nil, err
	}
	spec, err := fpdata.Lookup(dcfg.Dataset, "")
	if err != nil {
		return nil, err
	}
	codec, err := compress.LookupParallel(dcfg.Codec, cfg.Workers)
	if err != nil {
		return nil, err
	}
	field := fpdata.Generate(spec, spec.ScaleFor(cfg.RatioElems), cfg.Seed)
	node := machine.NewNode(chip, cfg.Seed)
	base := machine.ClocksAt(chip, 1, 1)
	tuned := machine.ClocksAt(chip, dcfg.Tuning.CompressionFraction, dcfg.Tuning.WritingFraction)

	span := obs.Start(spanName)
	defer span.End()
	obs.Add("lcpio_sweep_points_expected", int64(len(cfg.ErrorBounds)))

	var out []boundCost
	for _, rel := range cfg.ErrorBounds {
		bspan := obs.Start("core.dump_bound")
		if bspan.Enabled() {
			bspan.SetAttr("eb", fmt.Sprintf("%g", rel))
		}
		res, err := compress.Evaluate(codec, field.Data, field.Dims, compress.AbsBoundFromRelative(rel, field.Data))
		if err != nil {
			bspan.End()
			return nil, fmt.Errorf("core: codec run at eb=%g: %w", rel, err)
		}
		d := machine.Dump{Codec: dcfg.Codec, RelEB: rel, Ratio: res.Ratio(), RawBytes: dcfg.TotalBytes, Mount: dcfg.Mount}
		b := boundCost{relEB: rel, ratio: res.Ratio(), payload: d.Sizes().Payload}
		legs, err := d.LegsNamed(chip, leg1, leg2)
		if err != nil {
			bspan.End()
			return nil, err
		}
		for i, l := range legs {
			b.base[i], b.tuned[i] = node.Price(l, base), node.Price(l, tuned)
		}
		out = append(out, b)
		bspan.End()
		obs.Add("lcpio_sweep_points_total", 1)
	}
	return out, nil
}

// LoadResult is the read-path mirror of DumpResult: energy to fetch the
// compressed snapshot from NFS and reconstruct it, base clock vs tuned.
type LoadResult struct {
	EB              float64
	Ratio           float64
	CompressedBytes int64

	BaseReadJ        float64
	BaseDecompressJ  float64
	TunedReadJ       float64
	TunedDecompressJ float64

	BaseSeconds  float64
	TunedSeconds float64
}

// BaseTotalJ is the untuned total energy.
func (r LoadResult) BaseTotalJ() float64 { return r.BaseReadJ + r.BaseDecompressJ }

// TunedTotalJ is the tuned total energy.
func (r LoadResult) TunedTotalJ() float64 { return r.TunedReadJ + r.TunedDecompressJ }

// SavedPct is the relative energy saving in percent.
func (r LoadResult) SavedPct() float64 {
	if r.BaseTotalJ() <= 0 {
		return 0
	}
	return 100 * (r.BaseTotalJ() - r.TunedTotalJ()) / r.BaseTotalJ()
}

// RunDataLoad models the inverse of RunDataDump: reading the compressed
// dump back over NFS and decompressing it, applying the same tuning rule
// (writing fraction for the read, compression fraction for decompression).
// The paper leaves the read path to future work; this extension uses the
// identical methodology.
func RunDataLoad(cfg Config, dcfg DumpConfig) ([]LoadResult, error) {
	bounds, err := priceBounds(cfg, dcfg, "core.dataload", "read", "decompress")
	if err != nil {
		return nil, err
	}
	out := make([]LoadResult, 0, len(bounds))
	for _, b := range bounds {
		out = append(out, LoadResult{
			EB: b.relEB, Ratio: b.ratio, CompressedBytes: b.payload,
			BaseReadJ: b.base[0].Joules, BaseDecompressJ: b.base[1].Joules,
			TunedReadJ: b.tuned[0].Joules, TunedDecompressJ: b.tuned[1].Joules,
			BaseSeconds:  b.base[0].Seconds + b.base[1].Seconds,
			TunedSeconds: b.tuned[0].Seconds + b.tuned[1].Seconds,
		})
	}
	return out, nil
}

// AverageDumpSavings aggregates Figure 6 into the paper's headline:
// mean absolute and relative savings across error bounds.
func AverageDumpSavings(results []DumpResult) (savedJ, savedPct float64, err error) {
	if len(results) == 0 {
		return 0, 0, fmt.Errorf("core: no dump results")
	}
	for _, r := range results {
		savedJ += r.SavedJ()
		savedPct += r.SavedPct()
	}
	n := float64(len(results))
	return savedJ / n, savedPct / n, nil
}
