package sim

import (
	"testing"

	"magis/internal/cost"
	"magis/internal/graph"
	"magis/internal/ops"
	"magis/internal/sched"
	"magis/internal/tensor"
)

func model() *cost.Model { return cost.NewModel(cost.RTX3090()) }

func TestComputeChainLatencyIsSum(t *testing.T) {
	g := graph.New()
	x := g.Add(ops.NewInput(tensor.S(1024, 1024), tensor.F32))
	a := g.Add(ops.NewReLU(tensor.S(1024, 1024), tensor.F32), x)
	b := g.Add(ops.NewGELU(tensor.S(1024, 1024), tensor.F32), a)
	m := model()
	r := Run(g, sched.Schedule{x, a, b}, Config{Model: m})
	want := m.NodeLatency(g.Node(a)) + m.NodeLatency(g.Node(b))
	if diff := r.Latency - want; diff < -1e-12 || diff > 1e-12 {
		t.Errorf("latency = %g, want %g", r.Latency, want)
	}
	if r.ComputeBusy != want || r.CopyBusy != 0 {
		t.Errorf("busy times wrong: %g/%g", r.ComputeBusy, r.CopyBusy)
	}
}

func TestAsyncStoreOverlaps(t *testing.T) {
	// A small tensor is swapped out and back while a much longer compute
	// chain runs: the copies overlap compute, so latency ~= compute time.
	g := graph.New()
	big := tensor.S(1024, 1024)
	small := tensor.S(256, 1024) // 1 MB: ~40us each way over PCIe
	x := g.Add(ops.NewInput(small, tensor.F32))
	c0 := g.Add(ops.NewInput(big, tensor.F32))
	st := g.Add(ops.NewStore(small, tensor.F32), x)
	prev := c0
	var chain []graph.NodeID
	for i := 0; i < 16; i++ {
		prev = g.Add(ops.NewGELU(big, tensor.F32), prev)
		chain = append(chain, prev)
	}
	ld := g.Add(ops.NewLoad(small, tensor.F32), st)
	fin := g.Add(ops.NewReduce("Sum", small, 1, tensor.F32), ld)

	m := model()
	order := sched.Schedule{x, c0, st}
	order = append(order, chain[:8]...)
	order = append(order, ld)
	order = append(order, chain[8:]...)
	order = append(order, fin)
	r := Run(g, order, Config{Model: m})

	computeOnly := 0.0
	for _, c := range append(chain, fin) {
		computeOnly += m.NodeLatency(g.Node(c))
	}
	if r.Latency > computeOnly*1.05 {
		t.Errorf("transfers not hidden: latency %g vs compute %g", r.Latency, computeOnly)
	}
}

func TestExposedTransferWhenNoOverlap(t *testing.T) {
	// Store; Load immediately before the only consumer, with no compute in
	// between: the transfer is fully exposed.
	g := graph.New()
	sh := tensor.S(4096, 4096)
	x := g.Add(ops.NewInput(sh, tensor.F32))
	st := g.Add(ops.NewStore(sh, tensor.F32), x)
	ld := g.Add(ops.NewLoad(sh, tensor.F32), st)
	y := g.Add(ops.NewReLU(sh, tensor.F32), ld)
	m := model()
	r := Run(g, sched.Schedule{x, st, ld, y}, Config{Model: m})
	transfer := m.NodeLatency(g.Node(st)) + m.NodeLatency(g.Node(ld))
	if r.Latency < transfer {
		t.Errorf("latency %g must include exposed transfers %g", r.Latency, transfer)
	}
}

func TestSwapReducesPeakMemory(t *testing.T) {
	// x (16 MB) is needed only at the very end. A long filler chain of
	// small ops gives the Store time to complete; a big temporary t then
	// spikes memory; x is reloaded only after t dies. Swapping therefore
	// removes x from the spike.
	build := func(swap bool) (*graph.Graph, sched.Schedule) {
		g := graph.New()
		xSh := tensor.S(2048, 2048) // 16 MB
		tSh := tensor.S(2048, 1536) // 12 MB
		fSh := tensor.S(512, 512)   // 1 MB filler
		x := g.Add(ops.NewInput(xSh, tensor.F32))
		f := g.Add(ops.NewInput(fSh, tensor.F32))
		order := sched.Schedule{x, f}
		var st, ld graph.NodeID
		if swap {
			st = g.Add(ops.NewStore(xSh, tensor.F32), x)
			order = append(order, st)
		}
		prev := f
		for i := 0; i < 150; i++ {
			prev = g.Add(ops.NewGELU(fSh, tensor.F32), prev)
			order = append(order, prev)
		}
		tmp := g.Add(ops.NewInput(tSh, tensor.F32))
		// Model the spike as a compute producing tSh from the filler.
		spike := g.Add(ops.NewGELU(tSh, tensor.F32), tmp)
		red := g.Add(ops.NewReduce("Sum", tSh, 1, tensor.F32), spike)
		gap := g.Add(ops.NewGELU(fSh, tensor.F32), prev)
		order = append(order, tmp, spike, red, gap)
		xSrc := x
		if swap {
			ld = g.Add(ops.NewLoad(xSh, tensor.F32), st)
			xSrc = ld
			order = append(order, ld)
		}
		fin := g.Add(ops.NewReduce("Sum", xSh, 1, tensor.F32), xSrc)
		order = append(order, fin)
		return g, order
	}
	m := model()
	gn, on := build(false)
	gs, os := build(true)
	rn := Run(gn, on, Config{Model: m})
	rs := Run(gs, os, Config{Model: m})
	if rs.Peak >= rn.Peak {
		t.Errorf("swap did not reduce peak: %d vs %d", rs.Peak, rn.Peak)
	}
	// Sanity: the non-swap peak includes x plus the spike.
	if rn.Peak < 16<<20+12<<20 {
		t.Errorf("non-swap peak %d unexpectedly small", rn.Peak)
	}
}

func TestTimelineMonotoneTime(t *testing.T) {
	g := graph.New()
	x := g.Add(ops.NewInput(tensor.S(256, 256), tensor.F32))
	a := g.Add(ops.NewReLU(tensor.S(256, 256), tensor.F32), x)
	r := Run(g, sched.Schedule{x, a}, Config{Model: model(), Timeline: true})
	if len(r.Timeline) == 0 {
		t.Fatal("no timeline")
	}
	last := -1.0
	var maxMem int64
	for _, p := range r.Timeline {
		if p.Time < last {
			t.Fatal("timeline not sorted")
		}
		last = p.Time
		if p.Mem > maxMem {
			maxMem = p.Mem
		}
	}
	if maxMem != r.Peak {
		t.Errorf("timeline max %d != peak %d", maxMem, r.Peak)
	}
}

// TestSelfCostedLatency: a payload that prices itself (as the optimizer's
// collapsed fission regions do) is timed by its own latency, not the
// cost model's.
func TestSelfCostedLatency(t *testing.T) {
	g := graph.New()
	x := g.Add(ops.NewInput(tensor.S(16), tensor.F32))
	a := g.Add(selfCosted{ops.NewReLU(tensor.S(16), tensor.F32), 42}, x)
	r := Run(g, sched.Schedule{x, a}, Config{Model: model()})
	if r.Latency != 42 {
		t.Errorf("self-costed payload ignored: latency = %g", r.Latency)
	}
}

func TestPeakMatchesStepSimulationOrderOfMagnitude(t *testing.T) {
	// The continuous-time peak can differ from the §2.1 step model (async
	// allocation), but for a pure compute chain they agree exactly.
	g := graph.New()
	x := g.Add(ops.NewInput(tensor.S(512, 512), tensor.F32))
	a := g.Add(ops.NewReLU(tensor.S(512, 512), tensor.F32), x)
	b := g.Add(ops.NewGELU(tensor.S(512, 512), tensor.F32), a)
	order := sched.Schedule{x, a, b}
	r := Run(g, order, Config{Model: model()})
	if p := sched.PeakOnly(g, order); p != r.Peak {
		t.Errorf("sim peak %d != lifetime peak %d", r.Peak, p)
	}
}
