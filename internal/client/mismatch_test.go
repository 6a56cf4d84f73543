package client_test

import (
	"testing"

	"dataflasks/internal/client"
	"dataflasks/internal/core"
	"dataflasks/internal/lab"
	"dataflasks/internal/metrics"
	"dataflasks/internal/store"
	"dataflasks/internal/workload"
)

// TestDirectoryWithWrongSliceCountStillCompletes: (f) a client whose
// slice count disagrees with the cluster's files members under the wrong
// slices, so some of its contacts are not in the key's slice — and those
// nodes re-route. Every op completes; the mismatch costs hops, not
// answers.
func TestDirectoryWithWrongSliceCountStillCompletes(t *testing.T) {
	const clientSlices, clusterSlices, records = 7, 3, 60
	c := lab.NewCluster(lab.ClusterConfig{N: 30, Seed: 23, Node: core.Config{Slices: clientSlices}})
	cl := c.NewClient(client.Config{}, nil) // its directory assumes the 7 slices configured
	for _, node := range c.Nodes() {
		node.SetSliceCount(clusterSlices) // the nodes move on to 3 without telling it
	}
	c.Run(40)

	var ok, failed int
	done := func(r client.Result) {
		if r.Err != nil {
			failed++
		} else {
			ok++
		}
	}
	for i := 0; i < records; i++ {
		cl.StartPutOpts(workload.Key(i), 1, []byte("v"), client.Opts{}, done)
		if i%4 == 3 {
			c.Run(1)
		}
	}
	c.Run(20)
	for i := 0; i < records; i++ {
		cl.StartGetOpts(workload.Key(i), store.Latest, client.Opts{}, done)
		if i%4 == 3 {
			c.Run(1)
		}
	}
	c.Run(60)
	if failed != 0 || ok != 2*records {
		t.Fatalf("ok %d, failed %d of %d ops", ok, failed, 2*records)
	}
	st := cl.DirectoryStats()
	var directed uint64
	for _, m := range c.NodeMetrics() {
		directed += m.Get(metrics.RequestsDirected)
	}
	t.Logf("directory %+v, %d directed relay hops", st, directed)
	if st.Hits == 0 {
		t.Error("the directory was never used")
	}
	if directed == 0 {
		t.Error("no node re-routed: the mismatch was not exercised")
	}
}
