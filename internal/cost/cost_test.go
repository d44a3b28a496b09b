package cost

import (
	"testing"

	"magis/internal/ops"
	"magis/internal/tensor"
)

func TestLeafAndTransferLatency(t *testing.T) {
	m := NewModel(RTX3090())
	in := ops.NewInput(tensor.S(1024, 1024), tensor.F32)
	if m.OpLatency(in) != 0 {
		t.Error("inputs cost nothing")
	}
	st := ops.NewStore(tensor.S(1024, 1024), tensor.F32)
	want := 4.0 * 1024 * 1024 / m.Dev.HostBW
	got := m.OpLatency(st)
	if got < want || got > want+2*m.Dev.Launch {
		t.Errorf("store latency = %g, want ~%g", got, want)
	}
}

func TestComputeRoofline(t *testing.T) {
	m := NewModel(RTX3090())
	// Large matmul: compute-bound, near peak.
	big := ops.NewMatmul(tensor.S(4096, 4096), tensor.S(4096, 4096), false, false, tensor.F32)
	tBig := m.OpLatency(big)
	ideal := big.FLOPs() / m.Dev.PeakFLOPS
	if tBig < ideal {
		t.Errorf("latency %g below ideal %g", tBig, ideal)
	}
	if tBig > 2*ideal {
		t.Errorf("big matmul should be near peak: %g vs ideal %g", tBig, ideal)
	}
	// Elementwise op: memory-bound.
	relu := ops.NewReLU(tensor.S(4096, 4096), tensor.F32)
	tRelu := m.OpLatency(relu)
	memIdeal := float64(relu.OutBytes()+relu.InBytes()) / m.Dev.MemBW
	if tRelu < memIdeal {
		t.Errorf("relu %g below memory roofline %g", tRelu, memIdeal)
	}
}

func TestFissionUtilizationPenalty(t *testing.T) {
	m := NewModel(RTX3090())
	full := ops.NewMatmul(tensor.S(256, 1024), tensor.S(1024, 1024), false, false, tensor.F32)
	part, err := full.SplitAxis(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	tFull := m.OpLatency(full)
	tParts := 8 * m.OpLatency(part)
	if tParts <= tFull {
		t.Errorf("8 split parts (%g) must be slower than one op (%g)", tParts, tFull)
	}
	// But not catastrophically so for this size.
	if tParts > 10*tFull {
		t.Errorf("penalty too extreme: %g vs %g", tParts, tFull)
	}
}

func TestPerformanceCache(t *testing.T) {
	m := NewModel(RTX3090())
	op := ops.NewMatmul(tensor.S(64, 64), tensor.S(64, 64), false, false, tensor.F32)
	a := m.OpLatency(op)
	b := m.OpLatency(op)
	if a != b {
		t.Error("cache must return identical latencies")
	}
	hits, misses := m.CacheStats()
	if hits != 1 || misses != 1 {
		t.Errorf("cache stats = %d hits %d misses", hits, misses)
	}
}

// TestSpecMemoPerModel checks the latency memoized on a Spec: it answers
// only the model that priced it, a second model gets its own latency, and
// a fresh Spec with the same signature is answered by the shared cache.
func TestSpecMemoPerModel(t *testing.T) {
	slow := RTX3090()
	slow.Launch *= 2
	a, b := NewModel(RTX3090()), NewModel(slow)
	op := ops.NewMatmul(tensor.S(256, 256), tensor.S(256, 256), false, false, tensor.F32)
	la, lb := a.OpLatency(op), b.OpLatency(op)
	if la == lb {
		t.Fatalf("both models price %g: the second read the first's memo", la)
	}
	for i := 0; i < 2; i++ {
		if got := a.OpLatency(op); got != la {
			t.Errorf("model a: %g, first priced %g", got, la)
		}
		if got := b.OpLatency(op); got != lb {
			t.Errorf("model b: %g, first priced %g", got, lb)
		}
	}
	twin := ops.NewMatmul(tensor.S(256, 256), tensor.S(256, 256), false, false, tensor.F32)
	if got := a.OpLatency(twin); got != la {
		t.Errorf("fresh twin: %g, want %g", got, la)
	}
	if hits, misses := a.CacheStats(); hits != 3 || misses != 1 {
		t.Errorf("model a: %d hits, %d misses; want 3, 1", hits, misses)
	}
}

func TestMonotoneInN(t *testing.T) {
	// Total latency of n sequential parts grows with n.
	m := NewModel(RTX3090())
	full := ops.NewMatmul(tensor.S(512, 512), tensor.S(512, 512), false, false, tensor.F32)
	prev := m.OpLatency(full)
	for _, n := range []int{2, 4, 8} {
		part, err := full.SplitAxis(1, n)
		if err != nil {
			t.Fatal(err)
		}
		total := float64(n) * m.OpLatency(part)
		if total < prev {
			t.Errorf("n=%d total %g not monotone (prev %g)", n, total, prev)
		}
		prev = total
	}
}
