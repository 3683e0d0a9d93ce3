package par

import (
	"sync/atomic"
	"testing"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 8, 100} {
		for _, n := range []int{0, 1, 3, 17, 256} {
			hits := make([]int32, n)
			Run(n, workers, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestRunSerialOnCallingGoroutine(t *testing.T) {
	// With workers <= 1 the calls must run inline and in order.
	var order []int
	Run(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

func TestLanesLaneIsStable(t *testing.T) {
	lanes := make(Lanes[int], 3)
	first := lanes.Lane(1)
	*first = 7
	if got := lanes.Lane(1); got != first || *got != 7 {
		t.Fatalf("Lane(1) returned %p (%d), first call returned %p", got, *got, first)
	}
	if lanes[0] != nil || lanes[2] != nil {
		t.Fatal("Lane(1) created other workers' lanes")
	}
	if lanes.Lane(0) == first {
		t.Fatal("workers 0 and 1 share a lane")
	}
}

func TestResizeKeepsParkedElements(t *testing.T) {
	lanes := make(Lanes[int], 4)
	held := make([]*int, 4)
	for w := range held {
		held[w] = lanes.Lane(w)
	}
	check := func(what string, l Lanes[int], n int) {
		t.Helper()
		if len(l) != n {
			t.Fatalf("%s: len %d, want %d", what, len(l), n)
		}
		for w, p := range held {
			if l[w] != p {
				t.Fatalf("%s: lane %d was dropped", what, w)
			}
		}
		for w := len(held); w < n; w++ {
			if l[w] != nil {
				t.Fatalf("%s: new lane %d is not empty", what, w)
			}
		}
	}

	// Shrink then grow within capacity: lanes 2 and 3 park past len.
	lanes = Resize(lanes, 2)
	if len(lanes) != 2 || lanes[0] != held[0] || lanes[1] != held[1] {
		t.Fatalf("shrink: got %v", lanes)
	}
	lanes = Resize(lanes, 4)
	check("shrink-then-grow", lanes, 4)

	// Shrink, then grow past capacity: the parked lanes must be copied into
	// the new backing array, not only the ones in view.
	lanes = Resize(lanes, 1)
	lanes = Resize(lanes, 9)
	check("grow past capacity", lanes, 9)
}
