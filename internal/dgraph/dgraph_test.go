package dgraph

import (
	"testing"

	"magis/internal/graph"
	"magis/internal/ops"
	"magis/internal/tensor"
)

// attention builds a self-attention core resembling Fig. 4: Q,K,V inputs
// of shape [B,H,T,h], scores = BMM(Q, K^T), probs = Softmax(scores, axis 4),
// out = BMM(probs, V).
func attention() (*graph.Graph, map[string]graph.NodeID) {
	g := graph.New()
	sh := tensor.S(2, 4, 8, 16) // B,H,T,h
	q := g.AddNamed("Q", ops.NewInput(sh, tensor.F32))
	k := g.AddNamed("K", ops.NewInput(sh, tensor.F32))
	v := g.AddNamed("V", ops.NewInput(sh, tensor.F32))
	scores := g.AddNamed("scores", ops.NewBatchMatmul(sh, sh, false, true, tensor.F32), q, k)
	probs := g.AddNamed("probs", ops.NewSoftmax(tensor.S(2, 4, 8, 8), 4, tensor.F32), scores)
	out := g.AddNamed("out", ops.NewBatchMatmul(tensor.S(2, 4, 8, 8), sh, false, false, tensor.F32), probs, v)
	return g, map[string]graph.NodeID{"q": q, "k": k, "v": v, "scores": scores, "probs": probs, "out": out}
}

func findComponent(comps []Component, dn DimNode) Component {
	for _, c := range comps {
		if c.Has(dn) {
			return c
		}
	}
	return nil
}

func TestAttentionComponents(t *testing.T) {
	g, n := attention()
	d := Build(g)
	comps := d.Components()
	// Batch component spans every tensor's dim 1.
	batch := findComponent(comps, DimNode{n["q"], 1})
	if batch == nil {
		t.Fatal("no batch component")
	}
	for _, name := range []string{"k", "v", "scores", "probs", "out"} {
		if !batch.Has(DimNode{n[name], 1}) {
			t.Errorf("batch component missing %s dim 1", name)
		}
	}
	// Sequence (row) component: Q's T flows through scores/probs/out dim 3,
	// but NOT into K's T (that one feeds the softmax-normalized axis).
	seq := findComponent(comps, DimNode{n["q"], 3})
	if seq == nil {
		t.Fatal("no sequence component")
	}
	for _, dn := range []DimNode{{n["scores"], 3}, {n["probs"], 3}, {n["out"], 3}} {
		if !seq.Has(dn) {
			t.Errorf("row component missing %v", dn)
		}
	}
	if seq.Has(DimNode{n["k"], 3}) {
		t.Error("K's sequence dim must be cut off by the softmax axis")
	}
}

func TestAttentionRowFissionChoice(t *testing.T) {
	g, n := attention()
	d := Build(g)
	seq := findComponent(d.Components(), DimNode{n["q"], 3})
	s := graph.NewSet(n["scores"], n["probs"], n["out"])
	choice, ok := ChoiceFor(d, g, seq, s)
	if !ok {
		t.Fatal("row fission should be valid")
	}
	for _, name := range []string{"scores", "probs", "out"} {
		if choice[n[name]] != 3 {
			t.Errorf("%s choice = %d, want 3", name, choice[n[name]])
		}
	}
	if choice[n["q"]] != 3 {
		t.Errorf("Q should be sliced along dim 3, got %d", choice[n["q"]])
	}
	if _, sliced := choice[n["k"]]; sliced {
		t.Error("K must be shared, not sliced (FlashAttention row blocking)")
	}
	if _, sliced := choice[n["v"]]; sliced {
		t.Error("V must be shared, not sliced")
	}
}

func TestAttentionBatchFissionChoice(t *testing.T) {
	g, n := attention()
	d := Build(g)
	batch := findComponent(d.Components(), DimNode{n["q"], 1})
	s := graph.NewSet(n["scores"], n["probs"], n["out"])
	choice, ok := ChoiceFor(d, g, batch, s)
	if !ok {
		t.Fatal("batch fission should be valid")
	}
	for _, name := range []string{"q", "k", "v"} {
		if choice[n[name]] != 1 {
			t.Errorf("%s should be sliced along batch, got %d", name, choice[n[name]])
		}
	}
}

// mlpTrain builds the Fig. 5 pattern: x[B,I] -> h=x*w -> y=ReLU(h), with a
// gradient path producing gw by a transposed matmul reducing over batch.
func mlpTrain() (*graph.Graph, map[string]graph.NodeID) {
	g := graph.New()
	x := g.AddNamed("x", ops.NewInput(tensor.S(32, 64), tensor.F32))
	w := g.AddNamed("w", ops.NewParam(tensor.S(64, 16), tensor.F32))
	h := g.AddNamed("h", ops.NewMatmul(tensor.S(32, 64), tensor.S(64, 16), false, false, tensor.F32), x, w)
	y := g.AddNamed("y", ops.NewReLU(tensor.S(32, 16), tensor.F32), h)
	gy := g.AddNamed("gy", ops.NewEltwiseBwd("ReLUBwd", tensor.S(32, 16), tensor.S(32, 16), tensor.F32, 1), h, y)
	gw := g.AddNamed("gw", ops.NewMatmul(tensor.S(32, 64), tensor.S(32, 16), true, false, tensor.F32), x, gy)
	return g, map[string]graph.NodeID{"x": x, "w": w, "h": h, "y": y, "gy": gy, "gw": gw}
}

func TestTrainingBatchFissionWithGradReduce(t *testing.T) {
	g, n := mlpTrain()
	d := Build(g)
	batch := findComponent(d.Components(), DimNode{n["h"], 1})
	if batch == nil {
		t.Fatal("no batch component")
	}
	if !batch.Has(DimNode{n["gw"], -1}) {
		t.Error("weight gradient's reduce axis should join the batch dimension")
	}
	s := graph.NewSet(n["h"], n["y"], n["gy"], n["gw"])
	choice, ok := ChoiceFor(d, g, batch, s)
	if !ok {
		t.Fatal("batch fission of the training step should be valid")
	}
	if choice[n["gw"]] != -1 {
		t.Errorf("gw must be reduce-merged, got axis %d", choice[n["gw"]])
	}
	if choice[n["h"]] != 1 || choice[n["y"]] != 1 || choice[n["gy"]] != 1 {
		t.Errorf("activations split along batch: %v", choice)
	}
	if choice[n["x"]] != 1 {
		t.Error("x must be sliced along batch")
	}
	if _, sliced := choice[n["w"]]; sliced {
		t.Error("weights must be shared")
	}
}

func TestChoiceRejectsPartialDimension(t *testing.T) {
	// A sub-graph straddling the softmax-normalized axis cannot be split
	// along the K-side sequence dimension.
	g, n := attention()
	d := Build(g)
	kseq := findComponent(d.Components(), DimNode{n["k"], 3})
	if kseq == nil {
		t.Skip("K sequence forms no multi-node component")
	}
	s := graph.NewSet(n["scores"], n["probs"])
	if _, ok := ChoiceFor(d, g, kseq, s); ok {
		t.Error("splitting through the softmax axis must be invalid")
	}
}

func TestComponentGraphNodes(t *testing.T) {
	g, n := attention()
	d := Build(g)
	batch := findComponent(d.Components(), DimNode{n["q"], 1})
	nodes := batch.GraphNodes()
	if len(nodes) != 6 {
		t.Errorf("batch dimension should touch all 6 nodes, got %d", len(nodes))
	}
}
