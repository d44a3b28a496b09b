package models

import (
	"testing"

	"magis/internal/dgraph"
	"magis/internal/graph"
	"magis/internal/sched"
	"magis/internal/tensor"
)

func validWorkload(t *testing.T, w *Workload) {
	t.Helper()
	if err := sched.Schedule(w.G.Topo()).Validate(w.G); err != nil {
		t.Fatalf("%s: invalid graph: %v", w.Name, err)
	}
	if !w.G.Has(w.Loss) {
		t.Fatalf("%s: loss node missing", w.Name)
	}
	if w.G.Node(w.Loss).Op.OutShape().Rank() != 0 {
		t.Fatalf("%s: loss not scalar", w.Name)
	}
	// Training graph: every Param with a gradient path has an ApplySGD.
	sgd := 0
	params := 0
	for _, v := range w.G.NodeIDs() {
		switch w.G.Node(v).Op.Kind() {
		case "ApplySGD":
			sgd++
		case "Param":
			params++
		}
	}
	if sgd == 0 {
		t.Fatalf("%s: no SGD updates (is this a training graph?)", w.Name)
	}
	if sgd > params {
		t.Fatalf("%s: more updates (%d) than params (%d)", w.Name, sgd, params)
	}
}

func TestSmallSuiteValid(t *testing.T) {
	for _, w := range SmallSuite() {
		w := w
		t.Run(w.Name, func(t *testing.T) { validWorkload(t, w) })
	}
}

func TestMLPValid(t *testing.T) {
	w := MLP(8, 32, 64, 10, 3)
	validWorkload(t, w)
}

func TestTable2FullScaleShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale workloads in -short mode")
	}
	for _, w := range Table2(1) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			validWorkload(t, w)
			if w.G.Len() < 100 {
				t.Errorf("suspiciously small graph: %d nodes", w.G.Len())
			}
			// Peak memory at the default order should be in the multi-GB
			// range the paper reports as exceeding/straining 24 GB.
			peak := sched.PeakOnly(w.G, w.G.Topo())
			if peak < 1<<30 {
				t.Errorf("%s peak %d bytes — too small for the paper's regime", w.Name, peak)
			}
		})
	}
}

func TestTransformerBatchDimensionRunsEndToEnd(t *testing.T) {
	// The batch dimension must form one connected D-graph component
	// spanning attention and MLP — the property fission relies on.
	w := TransformerLM("tiny", 4, 16, 64, 2, 4, 100, tensor.TF32, false)
	validWorkload(t, w)
	d := dgraph.Build(w.G)
	var probs graph.NodeID = graph.Invalid
	for _, v := range w.G.NodeIDs() {
		if w.G.Node(v).Name == "blk0.probs" {
			probs = v
		}
	}
	if probs == graph.Invalid {
		t.Fatal("no attention probs node")
	}
	var batchComp dgraph.Component
	for _, c := range d.Components() {
		if c.Has(dgraph.DimNode{Node: probs, Axis: 1}) {
			batchComp = c
		}
	}
	if batchComp == nil {
		t.Fatal("attention probs has no batch component")
	}
	// The component must reach the loss's reduce axis and the second
	// block's attention too.
	if !batchComp.Has(dgraph.DimNode{Node: w.Loss, Axis: -1}) {
		t.Error("batch component does not reach the loss reduction")
	}
	n := 0
	for dn := range batchComp {
		_ = dn
		n++
	}
	if n < w.G.Len()/4 {
		t.Errorf("batch component touches only %d dims of %d nodes", n, w.G.Len())
	}
}

func TestUNetSkipsCreateLongLifetimes(t *testing.T) {
	w := UNetConfig(2, 64, 16, 3)
	prof := sched.Simulate(w.G, w.G.Topo())
	if len(prof.Hotspots) < 4 {
		t.Errorf("U-Net should have several hot tensors, got %d", len(prof.Hotspots))
	}
}

func TestUNetPPDenser(t *testing.T) {
	u := UNetConfig(2, 64, 16, 3)
	upp := UNetPPConfig(2, 64, 16, 3)
	if upp.G.Len() <= u.G.Len() {
		t.Errorf("U-Net++ (%d nodes) should be denser than U-Net (%d)", upp.G.Len(), u.G.Len())
	}
}

func TestSkipChainMotivation(t *testing.T) {
	g, _ := SkipChain(32, 8)
	prof := sched.Simulate(g, g.Topo())
	// All 32 forward tensors (plus in-flight ones) alive at the turn:
	// peak ~ 33-34 tensors of 32 bytes.
	per := int64(8 * 4)
	if prof.Peak < 32*per {
		t.Errorf("skip chain peak %d, want >= %d", prof.Peak, 32*per)
	}
}

func TestRandomNASNetDeterminismAndVariety(t *testing.T) {
	a := RandomNASNet(1, 4, 8, 16, 2)
	b := RandomNASNet(1, 4, 8, 16, 2)
	if a.G.WLHash() != b.G.WLHash() {
		t.Error("same seed must give the same graph")
	}
	c := RandomNASNet(2, 4, 8, 16, 2)
	if a.G.WLHash() == c.G.WLHash() {
		t.Error("different seeds should give different graphs")
	}
	if err := sched.Schedule(a.G.Topo()).Validate(a.G); err != nil {
		t.Fatal(err)
	}
}
