package lab

import "testing"

// TestChurnConvergenceCompare holds E17: after a churn burst all three
// digest modes must restore full replication, the Bloom mode spending
// >= 5x less digest bandwidth than full headers and the ranged mode no
// more than Bloom — and >= 5x less once converged. Under -short it is a
// 25% burst on a small cluster of its own.
func TestChurnConvergenceCompare(t *testing.T) {
	var c ChurnComparison
	if testing.Short() {
		c = ChurnConvergenceCompare(ChurnConvergenceOptions{
			N:        80,
			Slices:   4,
			Records:  48,
			KillFrac: 0.25,
			Rounds:   100,
			Seed:     7,
		})
	} else {
		c = quick("churn").Result.(ChurnResult).Convergence
	}
	for _, r := range []ChurnConvergenceResult{c.FullHeader, c.Bloom, c.Ranged} {
		t.Logf("%-11s converged@%d digest=%dB push=%dB objs=%d steady=%.1f B/node/round",
			r.Mode, r.ConvergedRound, r.DigestBytes, r.PushBytes, r.PushedObjects, r.SteadyDigestBytesPerNodeRound)
	}
	hold(t, ChurnConvergenceGate(c))
}
