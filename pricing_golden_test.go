package lcpio_test

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"lcpio/internal/advisor"
	"lcpio/internal/ckpt"
	"lcpio/internal/cluster"
	"lcpio/internal/core"
	"lcpio/internal/dedup"
	"lcpio/internal/dvfs"
	"lcpio/internal/fpdata"
	"lcpio/internal/machine"
	"lcpio/internal/netsim"
	"lcpio/internal/phases"
	"lcpio/internal/svc"
	"lcpio/internal/transit"
)

// pricingGoldenPath holds the seconds and joules every public pricer
// reports for the fixed input grid below, one "name value" line each.
const pricingGoldenPath = "testdata/pricing_golden.txt"

// TestPricingGolden pins the dump cost model end to end: every public
// pricer (daemon advice, admission and attribution; advisor decisions,
// campaigns and grids; checkpoint parity, delta and campaign economics;
// in-transit batches and break-evens; the fleet model; the Figure 6 dump
// and load; span pricing) must reproduce the recorded values to 1e-9
// relative.
func TestPricingGolden(t *testing.T) {
	got := pricingGrid(t)
	want := readPricingGolden(t)
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: no longer produced", name)
			continue
		}
		if !sameValue(g, want[name]) {
			t.Errorf("%s = %.17g, golden %.17g", name, g, want[name])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: produced but not in %s", name, pricingGoldenPath)
		}
	}
}

func sameValue(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func readPricingGolden(t *testing.T) map[string]float64 {
	t.Helper()
	f, err := os.Open(filepath.FromSlash(pricingGoldenPath))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("golden %s: %v", fields[0], err)
		}
		out[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// goldenRows collects named values; duplicate names are a test bug.
type goldenRows struct {
	t *testing.T
	m map[string]float64
}

func (g goldenRows) add(name string, v float64) {
	g.t.Helper()
	if _, dup := g.m[name]; dup {
		g.t.Fatalf("duplicate golden row %s", name)
	}
	g.m[name] = v
}

func (g goldenRows) addf(v float64, format string, args ...any) {
	g.t.Helper()
	g.add(fmt.Sprintf(format, args...), v)
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// pricingGrid runs the fixed input grid through every public pricer.
func pricingGrid(t *testing.T) map[string]float64 {
	g := goldenRows{t: t, m: map[string]float64{}}
	goldenSvc(t, g)
	goldenAdvisor(t, g)
	goldenCkpt(t, g)
	goldenTransit(t, g)
	goldenCluster(t, g)
	goldenCore(t, g)
	goldenSpans(g)
	return g.m
}

// goldenSet is a deterministic smooth checkpoint set.
func goldenSet(name string, ranks, fields, elems int, shift float64) ckpt.Set {
	set := ckpt.Set{Name: name, Meta: "pricing golden", Codec: "sz", Ranks: ranks}
	for fi := 0; fi < fields; fi++ {
		f := ckpt.Field{Name: fmt.Sprintf("f%d", fi), Dims: []int{elems}, ErrorBound: 1e-3}
		for r := 0; r < ranks; r++ {
			d := make([]float32, elems)
			for i := range d {
				x := float64(i)/48 + float64(r) + float64(fi)*0.7
				d[i] = float32(math.Sin(x) + 0.01*x)
			}
			f.Data = append(f.Data, d)
		}
		set.Fields = append(set.Fields, f)
	}
	if shift != 0 {
		// Churn a contiguous tenth of every stream beyond the bound.
		for fi := range set.Fields {
			for r, d := range set.Fields[fi].Data {
				c := append([]float32(nil), d...)
				for i := len(c) / 3; i < len(c)/3+len(c)/10; i++ {
					c[i] += float32(shift)
				}
				set.Fields[fi].Data[r] = c
			}
		}
	}
	return set
}

func goldenSvc(t *testing.T, g goldenRows) {
	srv := svc.NewServer(svc.Config{})
	must(t, srv.AddTenant(svc.TenantConfig{Name: "t"}))
	cEnd, sEnd := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(sEnd) }()
	defer func() {
		cEnd.Close()
		sEnd.Close()
		<-done
	}()
	cl := svc.NewClient(cEnd)

	advise := func(tag string) {
		for _, floor := range []float64{0, 60} {
			rep, err := cl.Advise(svc.AdviseRequest{Tenant: "t", RawBytes: 48 << 20, MinPSNR: floor})
			must(t, err)
			g.addf(rep.ProjJoules, "svc/advise/%s/floor%g/joules", tag, floor)
			g.addf(rep.ProjSeconds, "svc/advise/%s/floor%g/seconds", tag, floor)
		}
	}
	advise("prior")
	res, err := cl.Dump("t", goldenSet("svc-set", 2, 2, 4096, 0), svc.DumpOptions{Workers: 1})
	must(t, err)
	g.add("svc/dump/compress_joules", res.CompressJoules)
	g.add("svc/dump/transit_joules", res.TransitJoules)
	g.add("svc/dump/sim_seconds", res.SimSeconds)
	rr, err := cl.Restore("svc-set")
	must(t, err)
	g.add("svc/restore/read_joules", rr.ReadJoules)
	advise("history")
}

func goldenAdvisor(t *testing.T, g goldenRows) {
	spec := fpdata.IsabelFields()[2]
	f := fpdata.Generate(spec, spec.ScaleFor(1<<15), 42)
	c, err := advisor.New(advisor.Config{})
	must(t, err)
	sk, err := c.Sketch(f.Data, f.Dims)
	must(t, err)
	slow := netsim.TenGbE().WithBandwidth(200e6)
	reqs := []struct {
		tag string
		req advisor.Request
	}{
		{"plain", advisor.Request{}},
		{"floor60", advisor.Request{MinPSNR: 60}},
		{"big", advisor.Request{RawBytes: 3<<30 + 12345}},
		{"deadline", advisor.Request{RawBytes: 1 << 30, DeadlineSeconds: 6}},
		{"delta", advisor.Request{ChurnRate: 0.05}},
		{"parity", advisor.Request{Ranks: 16, ParityRanks: 2, RankLossProb: 0.05}},
		{"redump", advisor.Request{Ranks: 8, RankLossProb: 0.05}},
		{"wire", advisor.Request{WireLink: &slow}},
		{"wireparity", advisor.Request{WireLink: &slow, Ranks: 4, ParityRanks: 1, RankLossProb: 0.01}},
	}
	for _, r := range reqs {
		dec, err := c.Decide(sk, r.req)
		must(t, err)
		p := "advisor/decide/" + r.tag
		g.add(p+"/energy", dec.EnergyJ)
		g.add(p+"/seconds", dec.Seconds)
		g.add(p+"/compress_joules", dec.CompressJoules)
		g.add(p+"/write_joules", dec.WriteJoules)
		g.add(p+"/recovery_joules", dec.RecoveryJoules)
		g.add(p+"/parity_breakeven", dec.ParityBreakEvenLossProb)
		g.add(p+"/delta_breakeven", dec.DeltaBreakEvenChurn)
		g.add(p+"/wire_breakeven_bps", dec.WireBreakEvenBps)
		for _, cand := range dec.Table {
			g.addf(cand.EnergyJ, "%s/table/%s/%g/energy", p, cand.Codec, cand.RelEB)
			g.addf(cand.Seconds, "%s/table/%s/%g/seconds", p, cand.Codec, cand.RelEB)
		}
		pl, err := c.Campaign(dec, 2, 1)
		must(t, err)
		chip := dvfs.Broadwell()
		tot, err := pl.Execute(machine.NewNode(chip, 1))
		must(t, err)
		g.add(p+"/campaign/joules", tot.Joules)
		g.add(p+"/campaign/seconds", tot.Seconds)
	}

	grid, err := advisor.EvaluateGrid(f.Data, f.Dims, advisor.GridOptions{TotalBytes: 5<<30 + 7})
	must(t, err)
	for _, e := range grid {
		g.addf(e.EnergyJ, "advisor/grid/%s/%g/energy", e.Codec, e.RelEB)
		g.addf(e.Seconds, "advisor/grid/%s/%g/seconds", e.Codec, e.RelEB)
	}
	pts, err := advisor.WorkerEnergies("Skylake", "zfp", 2<<30, 1e-4, 7, 1.9, 4)
	must(t, err)
	for _, pt := range pts {
		g.addf(pt.Joules, "advisor/workers/%d/joules", pt.Cores)
		g.addf(pt.Seconds, "advisor/workers/%d/seconds", pt.Cores)
	}
}

func goldenCkpt(t *testing.T, g goldenRows) {
	write := func(med ckpt.Medium, set ckpt.Set, opts ckpt.WriteOptions) *ckpt.WriteResult {
		t.Helper()
		res, err := ckpt.Write(med, set, opts)
		must(t, err)
		return res
	}
	report := func(tag string, res *ckpt.WriteResult) {
		for _, restore := range []bool{false, true} {
			if restore && res.Manifest.IsDelta() {
				continue
			}
			cmp, err := res.EnergyReport(ckpt.CampaignOptions{Iterations: 3, ComputeSeconds: 2, WithRestore: restore})
			must(t, err)
			p := fmt.Sprintf("ckpt/%s/report/restore=%v", tag, restore)
			g.add(p+"/base_joules", cmp.Base.Joules)
			g.add(p+"/base_seconds", cmp.Base.Seconds)
			g.add(p+"/tuned_joules", cmp.Tuned.Joules)
			g.add(p+"/tuned_seconds", cmp.Tuned.Seconds)
		}
	}
	full := goldenSet("full", 4, 2, 6000, 0)
	plain := write(ckpt.NewMemMedium(), full, ckpt.WriteOptions{Workers: 2})
	report("plain", plain)

	par := write(ckpt.NewMemMedium(), full, ckpt.WriteOptions{Workers: 2, ParityRanks: 2})
	report("parity", par)
	pe, err := par.ParityEnergy(ckpt.CampaignOptions{})
	must(t, err)
	g.add("ckpt/parity/energy/parity_joules", pe.ParityJoules)
	g.add("ckpt/parity/energy/parity_seconds", pe.ParitySeconds)
	g.add("ckpt/parity/energy/reconstruct_joules", pe.ReconstructJoules)
	g.add("ckpt/parity/energy/redump_joules", pe.RedumpJoules)
	g.add("ckpt/parity/energy/breakeven", pe.BreakEvenLossProb)

	baseMed := ckpt.NewMemMedium()
	baseRes := write(baseMed, full, ckpt.WriteOptions{Workers: 2})
	params := dedup.Params{MinSize: 256, AvgSize: 1024, MaxSize: 4096}
	for _, parity := range []int{0, 1} {
		base, err := ckpt.OpenBase(baseMed, nil, params, ckpt.RestoreOptions{Workers: 2})
		must(t, err)
		next := goldenSet(fmt.Sprintf("delta-p%d", parity), 4, 2, 6000, 0.5)
		res := write(ckpt.NewMemMedium(), next, ckpt.WriteOptions{Workers: 2, Base: base, ParityRanks: parity})
		tag := fmt.Sprintf("delta-p%d", parity)
		report(tag, res)
		de, err := res.DeltaEnergy(baseRes, ckpt.CampaignOptions{})
		must(t, err)
		p := "ckpt/" + tag + "/energy"
		g.add(p+"/hash_joules", de.HashJoules)
		g.add(p+"/delta_joules", de.DeltaJoules)
		g.add(p+"/full_joules", de.FullJoules)
		g.add(p+"/breakeven_churn", de.BreakEvenChurn)
	}
}

func goldenTransit(t *testing.T, g goldenRows) {
	spec := fpdata.IsabelFields()[1]
	var payloads []transit.Payload
	for seed := int64(1); seed <= 3; seed++ {
		f := fpdata.Generate(spec, spec.ScaleFor(1<<13), seed)
		payloads = append(payloads, transit.Payload{Data: f.Data, Dims: f.Dims})
	}
	for _, codec := range []string{transit.CodecRaw, "sz", "zfp"} {
		ch, err := transit.New(transit.Config{Link: netsim.TenGbE().WithBandwidth(1e9), Codec: codec, Workers: 2})
		must(t, err)
		b, err := ch.SendAll(payloads)
		must(t, err)
		p := "transit/" + codec
		g.add(p+"/batch/joules", b.Joules)
		g.add(p+"/batch/raw_joules", b.RawJoules)
		g.add(p+"/batch/sim_seconds", b.SimSeconds)
		if codec == transit.CodecRaw {
			continue
		}
		e, err := ch.BreakEven(payloads[0])
		must(t, err)
		g.add(p+"/breakeven/compress_joules", e.CompressJoules)
		g.add(p+"/breakeven/decompress_joules", e.DecompressJoules)
		g.add(p+"/breakeven/bps", e.BreakEvenBps)
		g.add(p+"/breakeven/energy_bps", e.EnergyBreakEvenBps)
		pl, err := ch.Campaign(b, 2, 1)
		must(t, err)
		chip := dvfs.Broadwell()
		tot, err := pl.ApplyRule(phases.PaperRule(), chip).Execute(machine.NewNode(chip, 1))
		must(t, err)
		g.add(p+"/campaign/joules", tot.Joules)
		g.add(p+"/campaign/seconds", tot.Seconds)
	}
}

func goldenCluster(t *testing.T, g goldenRows) {
	base := cluster.Config{
		Nodes: 64, PerNodeBytes: 20<<30 + 3, Codec: "sz", RelEB: 1e-3, Ratio: 7.3,
		CompressionFraction: 0.875, WritingFraction: 0.85, Seed: 3,
	}
	cfgs := []struct {
		tag string
		mod func(*cluster.Config)
	}{
		{"plain", func(*cluster.Config) {}},
		{"raw", func(c *cluster.Config) { c.Ratio = 0 }},
		{"ckpt", func(c *cluster.Config) { c.CkptFields, c.CkptRanksPerNode = 2, 3 }},
		{"parity", func(c *cluster.Config) { c.CkptFields, c.CkptRanksPerNode, c.CkptParityRanks = 2, 3, 1 }},
		{"churn", func(c *cluster.Config) { c.CkptFields, c.CkptRanksPerNode, c.CkptChurnRate = 2, 3, 0.2 }},
		{"analytic", func(c *cluster.Config) {
			c.CkptFields, c.CkptRanksPerNode, c.CkptParityRanks, c.CkptChurnRate = 128, 64, 2, 0.3
		}},
		{"wire", func(c *cluster.Config) { c.Ratio, c.WireCodec, c.WireRatio = 0, "zfp", 5.5 }},
		{"advise", func(c *cluster.Config) { c.Advise = true }},
	}
	for _, cc := range cfgs {
		cfg := base
		cc.mod(&cfg)
		r, err := cluster.Dump(cfg)
		must(t, err)
		p := "cluster/" + cc.tag
		g.add(p+"/node_joules", r.NodeJoules)
		g.add(p+"/compress_seconds", r.NodeCompressSeconds)
		g.add(p+"/dedup_seconds", r.NodeDedupSeconds)
		g.add(p+"/transit_seconds", r.NodeTransitSeconds)
		g.add(p+"/wire_breakeven_bps", r.WireBreakEvenBps)
	}
}

func goldenCore(t *testing.T, g goldenRows) {
	cfg := core.Config{Seed: 7, RatioElems: 1 << 13}
	for _, codec := range []string{"sz", "zfp"} {
		dcfg := core.DumpConfig{TotalBytes: 7<<30 + 5, Codec: codec}
		dumps, err := core.RunDataDump(cfg, dcfg)
		must(t, err)
		for _, d := range dumps {
			p := fmt.Sprintf("core/dump/%s/%g", codec, d.EB)
			g.add(p+"/base_compress_joules", d.BaseCompressJ)
			g.add(p+"/base_transit_joules", d.BaseTransitJ)
			g.add(p+"/tuned_compress_joules", d.TunedCompressJ)
			g.add(p+"/tuned_transit_joules", d.TunedTransitJ)
			g.add(p+"/base_seconds", d.BaseSeconds)
			g.add(p+"/tuned_seconds", d.TunedSeconds)
		}
		loads, err := core.RunDataLoad(cfg, dcfg)
		must(t, err)
		for _, l := range loads {
			p := fmt.Sprintf("core/load/%s/%g", codec, l.EB)
			g.add(p+"/base_read_joules", l.BaseReadJ)
			g.add(p+"/base_decompress_joules", l.BaseDecompressJ)
			g.add(p+"/tuned_read_joules", l.TunedReadJ)
			g.add(p+"/tuned_decompress_joules", l.TunedDecompressJ)
			g.add(p+"/base_seconds", l.BaseSeconds)
			g.add(p+"/tuned_seconds", l.TunedSeconds)
		}
	}
}

func goldenSpans(g goldenRows) {
	for _, chip := range []*dvfs.Chip{dvfs.Broadwell(), dvfs.Skylake()} {
		model := machine.EnergyModel(chip)
		for _, class := range []string{
			"sz.compress", "zfp.compress", "squant.compress",
			"sz.decompress", "zfp.decompress", "squant.decompress",
			"nfs.write", "nfs.read", "dedup.split", "ec.encode", "ec.reconstruct",
		} {
			for _, bytes := range []int64{0, 1 << 20, 3<<30 + 1} {
				g.addf(model(class, bytes, time.Millisecond), "spans/%s/%s/%d", chip.Series, class, bytes)
			}
		}
	}
}
