package lab

import "testing"

// TestBootstrapRecoveryOutpacesObjectRepair is the subsystem's headline
// regression: a cold joiner recovering its slice via segment streaming
// must converge at least 5x sooner than the object-wise anti-entropy
// baseline.
func TestBootstrapRecoveryOutpacesObjectRepair(t *testing.T) {
	if !testing.Short() {
		c := quick("bootstrap").Result.(BootstrapComparison)
		hold(t, BootstrapGate(c.Segment, c.Object))
		return
	}
	seg, obj := BootstrapRecoveryCompare(BootstrapRecoveryOptions{
		N: 50, Slices: 5, Records: 5000, Rounds: 200, Seed: 7,
	})
	t.Logf("segment=%+v", seg)
	t.Logf("object=%+v", obj)
	hold(t, BootstrapGate(seg, obj))
}

// TestBootstrapFallbackMixedCluster covers the mixed-version cluster: a
// joiner that wants segments among peers that do not speak the protocol
// must fall back cleanly to object-wise repair and still converge, with
// the fallback visible in bootstrap_fallback_objects.
func TestBootstrapFallbackMixedCluster(t *testing.T) {
	if !testing.Short() {
		hold(t, BootstrapFallbackGate(quick("bootstrap").Result.(BootstrapComparison).Fallback))
		return
	}
	res := BootstrapRecovery(BootstrapRecoveryOptions{
		N: 50, Slices: 5, Records: 5000, Rounds: 200, Seed: 7,
		Segment: true, DisablePeerBootstrap: true,
	})
	t.Logf("fallback=%+v", res)
	hold(t, BootstrapFallbackGate(res))
}
