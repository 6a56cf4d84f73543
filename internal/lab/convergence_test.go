package lab

import "testing"

// TestChurnConvergenceCompare is the small-scale version of the
// flaskbench churn experiment: after a 25% churn burst all three digest
// modes must restore full replication, the Bloom mode must spend
// meaningfully less digest bandwidth doing it than full headers, and
// the ranged mode no more than Bloom — and far less once converged.
// Outside -short it reads flaskbench -quick's run, the one
// TestGoldenTables pins.
func TestChurnConvergenceCompare(t *testing.T) {
	var full, bloom, ranged ChurnConvergenceResult
	if testing.Short() {
		full, bloom, ranged = ChurnConvergenceCompare(ChurnConvergenceOptions{
			N:        80,
			Slices:   4,
			Records:  48,
			KillFrac: 0.25,
			Rounds:   100,
			Seed:     7,
		}, 12)
	} else {
		modes := quickChurnE17().res
		full, bloom, ranged = modes[0], modes[1], modes[2]
	}

	for _, r := range []ChurnConvergenceResult{full, bloom, ranged} {
		if !r.Converged {
			t.Errorf("%s mode never restored full replication (min coverage %.2f after %d rounds)",
				r.Mode, r.MinCoverage, r.Rounds)
		}
		if r.PushedObjects == 0 {
			t.Errorf("%s mode pushed no objects — repair did not run", r.Mode)
		}
		if r.DigestBytes == 0 {
			t.Errorf("%s mode reported no digest bytes — accounting broken", r.Mode)
		}
	}
	if full.DigestBytes <= bloom.DigestBytes {
		t.Errorf("bloom digests (%d B) not cheaper than full headers (%d B)",
			bloom.DigestBytes, full.DigestBytes)
	}
	if ranged.DigestBytes > bloom.DigestBytes {
		t.Errorf("ranged digests (%d B) cost more than whole-store bloom (%d B)",
			ranged.DigestBytes, bloom.DigestBytes)
	}
	if ranged.SteadyDigestBytesPerNodeRound*5 > bloom.SteadyDigestBytesPerNodeRound {
		t.Errorf("converged, ranged spends %.1f digest B/node/round, bloom %.1f: want >= 5x less",
			ranged.SteadyDigestBytesPerNodeRound, bloom.SteadyDigestBytesPerNodeRound)
	}
	t.Logf("full-header: converged@%d digest=%dB push=%dB objs=%d",
		full.ConvergedRound, full.DigestBytes, full.PushBytes, full.PushedObjects)
	t.Logf("bloom:       converged@%d digest=%dB push=%dB objs=%d (digest ratio %.1fx)",
		bloom.ConvergedRound, bloom.DigestBytes, bloom.PushBytes, bloom.PushedObjects,
		float64(full.DigestBytes)/float64(bloom.DigestBytes))
	t.Logf("ranged:      converged@%d digest=%dB push=%dB objs=%d (steady %.1f vs bloom %.1f B/node/round)",
		ranged.ConvergedRound, ranged.DigestBytes, ranged.PushBytes, ranged.PushedObjects,
		ranged.SteadyDigestBytesPerNodeRound, bloom.SteadyDigestBytesPerNodeRound)
}
