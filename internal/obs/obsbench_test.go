package obs_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"lcpio/internal/obs"
)

// BenchmarkExport measures every serializer over a large registry: 100 root
// spans of 150 children each (~15k spans) with attributes, energy, metrics
// and a pipeline.
func BenchmarkExport(b *testing.B) {
	prev := obs.Active()
	big := obs.NewRegistry()
	big.SetEnergyModel(func(string, int64, time.Duration) float64 { return 0 })
	obs.Use(big)
	for root := 0; root < 100; root++ {
		rs := obs.Start("bench.root")
		rs.SetAttr("iter", fmt.Sprint(root))
		for child := 0; child < 150; child++ {
			cs := obs.Start("bench.child")
			cs.AddEnergy(0.001)
			cs.End()
		}
		obs.Add("lcpio_bench_items_total", 150)
		obs.Observe("lcpio_bench_depth", float64(root))
		rs.End()
	}
	workers := runtime.GOMAXPROCS(0)
	pt := big.StartPipeline("bench.pipe", workers)
	for w := 0; w < workers; w++ {
		wc := pt.Worker(w)
		wc.Run("stage")
		wc.WaitInput()
	}
	pt.End()
	obs.Use(prev)

	for _, bc := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"json", big.WriteJSON},
		{"prometheus", big.WritePrometheus},
		{"chrome", big.WriteChromeTrace},
		{"folded", func(w io.Writer) error { return big.WriteFolded(w, true) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.write(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
