package fault

import (
	"math/rand"
	"testing"

	"gpustl/internal/circuits"
)

// FuzzWideBlockEquiv fuzzes the shard walker against the test-only
// reference engine: for any pattern stream, block width W, worker count
// and pattern order the detections must be byte-identical — same
// faults, same first detecting pattern index, same clock cycle, same
// drop set. Bit order equals stream order at every width, so any
// divergence is an engine bug, never an accepted reordering.
func FuzzWideBlockEquiv(f *testing.F) {
	mod, err := circuits.Build(circuits.ModuleDU, 0)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(int64(1), uint8(70), uint8(0), false, uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), false, uint8(1))
	f.Add(int64(3), uint8(65), uint8(16), true, uint8(0))
	f.Add(int64(4), uint8(130), uint8(4), false, uint8(1))
	f.Add(int64(5), uint8(9), uint8(8), true, uint8(1))
	f.Add(int64(6), uint8(200), uint8(1), false, uint8(1))

	f.Fuzz(func(t *testing.T, seed int64, nPat, w uint8, reverse bool, wk uint8) {
		r := rand.New(rand.NewSource(seed))
		stream := randomDUStream(r, 1+int(nPat))
		if reverse {
			stream = reverseStream(stream)
		}
		width := int(w) % 17 // 0 = auto, else an explicit W in [1,16]
		workers := []int{1, 3}[wk%2]

		run := func(reference bool) (*Report, []ID) {
			c := NewCampaign(mod)
			// 800 faults give three workers minFaultsPerWorker each.
			c.SampleFaults(800, seed)
			opt := SimOptions{BlockWords: width, Workers: workers}
			return simulate(t, c, reference, stream, opt), c.DetectedIDs()
		}
		ref, refIDs := run(true)
		opt, optIDs := run(false)

		if len(opt.Detections) != len(ref.Detections) {
			t.Fatalf("w=%d: %d detections, reference %d",
				width, len(opt.Detections), len(ref.Detections))
		}
		for i := range ref.Detections {
			if opt.Detections[i] != ref.Detections[i] {
				t.Fatalf("w=%d detection %d: %+v, reference %+v",
					width, i, opt.Detections[i], ref.Detections[i])
			}
		}
		if len(optIDs) != len(refIDs) {
			t.Fatalf("w=%d: dropped %d faults, reference %d", width, len(optIDs), len(refIDs))
		}
		for i := range refIDs {
			if optIDs[i] != refIDs[i] {
				t.Fatalf("w=%d drop %d: fault %d, reference %d",
					width, i, optIDs[i], refIDs[i])
			}
		}
		for p := range ref.DetectedPerPattern {
			if opt.DetectedPerPattern[p] != ref.DetectedPerPattern[p] {
				t.Fatalf("w=%d pattern %d: %d detections, reference %d",
					width, p, opt.DetectedPerPattern[p], ref.DetectedPerPattern[p])
			}
		}
	})
}
