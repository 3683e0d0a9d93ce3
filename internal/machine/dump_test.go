package machine

import (
	"reflect"
	"testing"

	"lcpio/internal/dvfs"
	"lcpio/internal/netsim"
	"lcpio/internal/nfs"
)

func TestDumpSizes(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    Dump
		want Sizes
	}{
		{"payload truncates", Dump{Codec: "sz", Ratio: 8, RawBytes: 1007},
			Sizes{Codec: 1007, Payload: 125, Shipped: 125}},
		{"at least one byte", Dump{Codec: "sz", Ratio: 8, RawBytes: 3},
			Sizes{Codec: 3, Payload: 1, Shipped: 1}},
		{"raw dump ships raw", Dump{RawBytes: 1007, FramingBytes: 40},
			Sizes{Codec: 1007, Payload: 1007, Shipped: 1047}},
		{"framing ships with the payload", Dump{Codec: "zfp", Ratio: 4, RawBytes: 4000, FramingBytes: 96},
			Sizes{Codec: 4000, Payload: 1000, Shipped: 1096}},
		{"churn share rounds up", Dump{Codec: "sz", Ratio: 2, RawBytes: 1000, Churn: 0.0015},
			Sizes{Codec: 2, Payload: 1, Shipped: 1}},
		{"measured codec bytes beat churn", Dump{Codec: "sz", Ratio: 2, RawBytes: 1000, Churn: 0.5, CodecBytes: 300},
			Sizes{Codec: 300, Payload: 150, Shipped: 150}},
		{"parity share truncates", Dump{Codec: "sz", Ratio: 8, RawBytes: 8000, ParityShare: 2.0 / 3},
			Sizes{Codec: 8000, Payload: 1000, Parity: 666, Shipped: 1000}},
		{"measured payload and parity", Dump{Codec: "sz", Ratio: 8, RawBytes: 8000, PayloadBytes: 777, ParityBytes: 55, ParityShare: 0.5},
			Sizes{Codec: 8000, Payload: 777, Parity: 55, Shipped: 777}},
		{"raw over the wire keeps compressed parity", Dump{Codec: "sz", Ratio: 8, RawBytes: 8000, ShipRaw: true, ParityShare: 0.5},
			Sizes{Codec: 8000, Payload: 1000, Parity: 500, Shipped: 8000}},
	} {
		if got := tc.d.Sizes(); got != tc.want {
			t.Errorf("%s: %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestDumpLegsOrderAndClasses(t *testing.T) {
	chip := dvfs.Broadwell()
	d := Dump{Codec: "zfp", RelEB: 1e-3, Ratio: 6, RawBytes: 1 << 20, Churn: 0.25,
		Hash: true, Verify: true, Workers: 4, ParityShare: 0.5}
	legs, err := d.Legs(chip)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	var classes []Class
	for _, l := range legs {
		names = append(names, l.Name)
		classes = append(classes, l.Class)
	}
	if want := []string{"dedup", "compress", "verify", "write", "parity-write"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("legs %v, want %v", names, want)
	}
	if want := []Class{CPU, CPU, CPU, IO, IO}; !reflect.DeepEqual(classes, want) {
		t.Fatalf("classes %v, want %v", classes, want)
	}
	// Only the codec legs spread across workers; hashing covers every raw
	// byte while the codec sees only the churned share.
	if legs[1].Work.Cores != 4 || legs[0].Work.Cores > 1 || legs[2].Work.Cores > 1 {
		t.Fatalf("cores dedup/compress/verify = %d/%d/%d", legs[0].Work.Cores, legs[1].Work.Cores, legs[2].Work.Cores)
	}
	hash, _ := DedupWorkload(1<<20, chip)
	comp, _ := CompressionWorkloadWithRatio("zfp", 1<<18, 1e-3, 6, chip)
	if legs[0].Work != hash || legs[1].Work != comp.WithCores(4) {
		t.Fatal("dedup or compress leg does not cover the dump's bytes")
	}

	raw, err := Dump{RawBytes: 1 << 20}.Legs(chip)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 1 || raw[0].Name != "write" {
		t.Fatalf("raw dump legs %+v, want one write", raw)
	}
	if _, err := (Dump{Codec: "lz4", Ratio: 2, RawBytes: 10}).Legs(chip); err == nil {
		t.Fatal("unknown codec accepted")
	}
	if _, err := d.Leg("teleport", chip); err == nil {
		t.Fatal("unknown leg name accepted")
	}
}

// TestDumpLegPaths checks the mount-vs-link choice and the recovery and
// restore byte counts against the workloads built by hand.
func TestDumpLegPaths(t *testing.T) {
	chip := dvfs.Skylake()
	mount := nfs.DefaultMount()
	d := Dump{Codec: "sz", RelEB: 1e-2, Ratio: 5, RawBytes: 5 << 20, FramingBytes: 4096,
		ParityBytes: 300 << 10, Ranks: 4, Mount: mount}
	shipped := int64(1<<20) + 4096
	for _, tc := range []struct {
		leg  string
		want Workload
	}{
		{"write", TransitWorkload(mount.Write(shipped), chip)},
		{"parity-write", TransitWorkload(mount.Write(300<<10), chip)},
		{"recover", TransitWorkload(mount.Read(300<<10), chip)},
		{"redump-write", TransitWorkload(mount.Write(shipped/4), chip)},
		{"read", TransitWorkload(mount.Read(shipped), chip)},
	} {
		l, err := d.Leg(tc.leg, chip)
		if err != nil {
			t.Fatal(err)
		}
		if l.Class != IO || l.Work != tc.want {
			t.Errorf("%s: %+v, want IO %+v", tc.leg, l, tc.want)
		}
	}
	redump, _ := CompressionWorkloadWithRatio("sz", (5<<20)/4, 1e-2, 5, chip)
	if l, _ := d.Leg("redump-compress", chip); l.Class != CPU || l.Work != redump {
		t.Errorf("redump-compress %+v, want CPU %+v", l, redump)
	}
	dec, _ := DecompressionWorkload("sz", 5<<20, 1e-2, 5, chip)
	if l, _ := d.Leg("decompress", chip); l.Class != CPU || l.Work != dec {
		t.Errorf("decompress %+v, want CPU %+v", l, dec)
	}

	link := netsim.TenGbE().WithBandwidth(1e8)
	d.Link = &link
	if l, _ := d.Leg("write", chip); l.Work != LinkTransitWorkload(shipped, link, chip) {
		t.Error("write leg ignores the link")
	}
	if l, _ := d.Leg("recover", chip); l.Work != LinkTransitWorkload(300<<10, link, chip) {
		t.Error("recover leg ignores the link")
	}
}

func TestPriceRunsEachClassAtItsClock(t *testing.T) {
	chip := dvfs.Broadwell()
	n := NewNode(chip, 1)
	c := PaperClocks(chip)
	if c != ClocksAt(chip, CompressionFraction, WritingFraction) || c.CPU == c.IO || c.CPU >= chip.BaseGHz {
		t.Fatalf("paper clocks %+v on a %.2f GHz base", c, chip.BaseGHz)
	}
	legs, err := Dump{Codec: "sz", RelEB: 1e-3, Ratio: 8, RawBytes: 64 << 20}.Legs(chip)
	if err != nil {
		t.Fatal(err)
	}
	comp, write := n.Price(legs[0], c), n.Price(legs[1], c)
	if comp != n.RunClean(legs[0].Work, c.CPU) || write != n.RunClean(legs[1].Work, c.IO) {
		t.Fatal("legs not priced at their class's clock")
	}
	sec, joules := n.PriceAll(legs, c)
	if sec != comp.Seconds+write.Seconds || joules != comp.Joules+write.Joules {
		t.Fatalf("PriceAll %v s %v J, want the leg sums", sec, joules)
	}
}
