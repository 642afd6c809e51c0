package rubis

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestSharedSnapshotBuildPanicIsAnError: a dataset config whose
// population panics (no regions to draw from) must come back from
// SharedSnapshot as an error, and must not leave its single-flight
// entry behind for the next caller with the same key to block on.
func TestSharedSnapshotBuildPanicIsAnError(t *testing.T) {
	cfg := smallDataset()
	cfg.Regions = 0
	for call := 1; call <= 2; call++ {
		done := make(chan error, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					done <- fmt.Errorf("panicked: %v", p)
				}
			}()
			_, err := SharedSnapshot(cfg, 4242)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("call %d: SharedSnapshot accepted a dataset with no regions", call)
			}
			if strings.HasPrefix(err.Error(), "panicked:") {
				t.Errorf("call %d: build panic escaped SharedSnapshot: %v", call, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d: SharedSnapshot still blocked after 5 s", call)
		}
	}
}
