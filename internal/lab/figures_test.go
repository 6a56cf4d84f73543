package lab

import "testing"

// Reduced-scale versions of the headline experiments keep CI fast; the
// full sweeps run via cmd/flaskbench and the root benchmarks. The scale
// is flaskbench -quick's at seed 42, so TestGoldenTables pins the same
// run's table.

func TestFigure3ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in -short mode")
	}
	res := quickFig3().res
	if len(res.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		t.Logf("N=%d k=%d msgs/node=%.1f (data=%.1f pss=%.1f disc=%.1f) ok=%d fail=%d",
			r.N, r.Slices, r.MsgsPerNode, r.DataMsgs, r.PSSMsgs, r.DiscoveryMsgs, r.OK, r.Failed)
		if r.Failed > r.OK/10 {
			t.Errorf("N=%d: %d failures out of %d ops", r.N, r.Failed, r.OK+r.Failed)
		}
	}
	// Shape: roughly flat — the largest point within 1.6x of the smallest.
	first, last := res.Rows[0].MsgsPerNode, res.Rows[2].MsgsPerNode
	if last > first*1.6 || first > last*1.6 {
		t.Errorf("Figure 3 not flat: %.1f → %.1f", first, last)
	}
}

func TestFigure4ShapeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep in -short mode")
	}
	res := quickFig4().res // k = 5, 10, 15
	for _, r := range res.Rows {
		t.Logf("N=%d k=%d msgs/node=%.1f (data=%.1f pss=%.1f disc=%.1f) ok=%d fail=%d",
			r.N, r.Slices, r.MsgsPerNode, r.DataMsgs, r.PSSMsgs, r.DiscoveryMsgs, r.OK, r.Failed)
	}
	// Shape: growing — more slices cost more messages per node.
	first, last := res.Rows[0].MsgsPerNode, res.Rows[2].MsgsPerNode
	if last <= first {
		t.Errorf("Figure 4 not growing: %.1f → %.1f", first, last)
	}
}
