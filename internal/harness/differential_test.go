package harness_test

import (
	"fmt"
	"testing"

	"pipes/internal/harness"
)

// frameSizes are the granularities the invariance suite compares against
// the frame-1 baseline: odd (frames and punctuation cuts misalign), the
// scheduler default, and whole-segment (each source segment is one frame).
var frameSizes = []int{7, 64, 0}

func frameName(f int) string {
	if f <= 0 {
		return "whole-segment"
	}
	return fmt.Sprintf("%d", f)
}

// TestFrameSizeInvariance is the headline oracle: every stress-suite
// graph shape, driven deterministically with identical schedules and
// punctuation placement, must produce the exact same output sequence,
// byte-identical operator snapshots at every barrier, and identical sink
// cuts at every frame size as at frame 1.
func TestFrameSizeInvariance(t *testing.T) {
	for i, plan := range plans(t) {
		plan, i := plan, i
		t.Run(plan.Name, func(t *testing.T) {
			t.Parallel()
			cfg := harness.DiffConfig{FrameSize: 1, Rounds: 3, Seed: int64(4200 + i)}
			base, err := harness.RunFrames(plan, cfg)
			if err != nil {
				t.Fatalf("frame=1: %v", err)
			}
			for _, frame := range frameSizes {
				cfg.FrameSize = frame
				got, err := harness.RunFrames(plan, cfg)
				if err != nil {
					t.Fatalf("frame=%s: %v", frameName(frame), err)
				}
				if err := harness.DiffRuns(base, got); err != nil {
					t.Errorf("frame=%s: %v", frameName(frame), err)
				}
			}
		})
	}
}

// TestFrameSizeInvarianceRandomizedPunctuation widens the punctuation
// space: many seeds move the barrier cuts (and thus the frame splits)
// across the streams; every placement must keep every frame size in exact
// agreement with frame 1.
func TestFrameSizeInvarianceRandomizedPunctuation(t *testing.T) {
	for i, plan := range plans(t) {
		plan, i := plan, i
		t.Run(plan.Name, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < 6; seed++ {
				cfg := harness.DiffConfig{
					FrameSize: 1,
					Rounds:    1 + seed%4,
					Seed:      int64(31*i + seed),
				}
				base, err := harness.RunFrames(plan, cfg)
				if err != nil {
					t.Fatalf("seed=%d frame=1: %v", seed, err)
				}
				for _, frame := range frameSizes {
					cfg.FrameSize = frame
					got, err := harness.RunFrames(plan, cfg)
					if err != nil {
						t.Fatalf("seed=%d frame=%s: %v", seed, frameName(frame), err)
					}
					if err := harness.DiffRuns(base, got); err != nil {
						t.Errorf("seed=%d frame=%s: %v", seed, frameName(frame), err)
					}
				}
			}
		})
	}
}

// TestCrashMidFrame abandons a run a few elements past a checkpoint —
// mid-frame — and verifies exact-state
// recovery: a rebuilt graph loaded from the round's snapshots and
// replayed from the recorded offsets must produce output that, appended
// to the pre-crash output truncated at the round's sink cut, is
// snapshot-equivalent to the uninterrupted run. A plan that stops
// propagating barriers fails here with ErrDiffUnsupported.
func TestCrashMidFrame(t *testing.T) {
	for i, plan := range plans(t) {
		plan, i := plan, i
		t.Run(plan.Name, func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < 4; seed++ {
				for _, frame := range []int{7, 64} {
					cfg := harness.DiffConfig{FrameSize: frame, Rounds: 3, Seed: int64(1700 + 13*i + seed)}
					if err := harness.RunCrashRecovery(plan, cfg, 2); err != nil {
						t.Errorf("seed=%d frame=%d: %v", seed, frame, err)
					}
				}
			}
		})
	}
}
