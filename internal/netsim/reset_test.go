package netsim

import "testing"

// TestResetMetersZeroesStats drives a lossy offloaded transfer so the
// packet, ack and recovery counters all move, resets both hosts, and
// checks that Stats is the zero struct and the offload configuration
// survived.
func TestResetMetersZeroesStats(t *testing.T) {
	_, r := offloadTransfer(t, &FaultPlan{DropProb: 0.05, Seed: 1}, pattern(256<<10), 0)
	st := r.server.Stats()
	if st.PktsOut == 0 || st.SegsOut == 0 || st.RetransSegs == 0 || r.client.Stats().AcksOut == 0 {
		t.Fatalf("transfer moved too few counters to test the reset: server %+v", st)
	}
	for _, h := range []*Host{r.server, r.client} {
		h.ResetMeters()
		if got := h.Stats(); got != (HostStats{}) {
			t.Errorf("%s stats after ResetMeters = %+v, want zero", h.Name, got)
		}
		if !h.Offload() || h.SegCapacity() != SuperSeg {
			t.Errorf("%s: ResetMeters disturbed the offload configuration", h.Name)
		}
	}
}
