package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"gpustl/internal/obs"
)

// workerReadyz mirrors the /readyz JSON body.
type workerReadyz struct {
	Worker     string `json:"worker"`
	Ready      bool   `json:"ready"`
	Draining   bool   `json:"draining"`
	QueueDepth int    `json:"queue_depth"`
	InFlight   int    `json:"in_flight"`
	Reason     string `json:"reason"`
}

// TestWorkerReadyzJSONBody pins the /readyz contract: both the 200 and
// the 503 carry a JSON body with the worker's queue depth, in-flight
// count and draining flag, so orchestrators see the same routing
// picture on either side of ready.
func TestWorkerReadyzJSONBody(t *testing.T) {
	h := NewHandlerOptions("rz", WorkerOptions{
		MaxConcurrent: 1, MaxQueue: 1, Metrics: obs.NewRegistry(),
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	fetch := func() (int, workerReadyz) {
		res, err := http.Get(srv.URL + readyzPath)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var body workerReadyz
		if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
			t.Fatalf("/readyz did not return JSON: %v", err)
		}
		return res.StatusCode, body
	}

	code, body := fetch()
	if code != http.StatusOK {
		t.Fatalf("fresh worker /readyz: %d", code)
	}
	if !body.Ready || body.Draining || body.Worker != "rz" ||
		body.QueueDepth != 0 || body.InFlight != 0 || body.Reason != "" {
		t.Fatalf("fresh worker body %+v", body)
	}

	// Occupy the only slot: still ready (queue has room), depth visible.
	rel, ok := h.slots.TryAcquire(context.Background(), 1)
	if !ok {
		t.Fatal("could not occupy the slot")
	}
	defer rel()

	h.StartDrain()
	code, body = fetch()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining worker /readyz: %d", code)
	}
	if body.Ready || !body.Draining || body.Reason != "draining" {
		t.Fatalf("draining worker body %+v", body)
	}
}
