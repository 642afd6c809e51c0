package experiment

import "testing"

// TestWindowSamplers pins the helpers the layers declare their series
// with: perWindow differences a cumulative counter (from zero on the
// first window), and share is the window's part/(part+rest), with the
// idle value when neither counter moved.
func TestWindowSamplers(t *testing.T) {
	var served, abnormal uint64
	timeouts := perWindow(func() uint64 { return abnormal })
	availability := share(func() uint64 { return served }, func() uint64 { return abnormal }, 1)

	var gotT, gotA []float64
	for _, w := range []struct{ served, abnormal uint64 }{
		{2, 2}, // two served, two abnormal
		{3, 2}, // one served
		{3, 2}, // idle
	} {
		served, abnormal = w.served, w.abnormal
		gotT = append(gotT, timeouts())
		gotA = append(gotA, availability())
	}
	if gotT[0] != 2 || gotT[1] != 0 || gotT[2] != 0 {
		t.Fatalf("per-window counts = %v, want [2 0 0]", gotT)
	}
	if gotA[0] != 0.5 || gotA[1] != 1 || gotA[2] != 1 {
		t.Fatalf("availability = %v, want [0.5 1 1]", gotA)
	}
	if idle := share(func() uint64 { return 0 }, func() uint64 { return 0 }, 0)(); idle != 0 {
		t.Fatalf("idle hit ratio = %v, want 0", idle)
	}
}
