package shard

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// TestFrontendRejectionNotRetried: a 4xx reply blames the request, so it
// must pass through without burning a retry. (Its inverse, one 500 reply
// retried and counted, is internal/serve's TestFrontendRetriesFlakyShard:
// the fault is injected into a hop frame.)
func TestFrontendRejectionNotRetried(t *testing.T) {
	m := tieModel(4, 40, 2)
	f := newFleet(t, m, ratedSet(4, 40), 2)
	var resp frontAnswer
	if code := getJSON(t, f.frontTS.URL+"/v1/recommend?user=99&n=5", &resp); code != http.StatusNotFound {
		t.Fatalf("unknown user: HTTP %d, want 404", code)
	}
	var buf bytes.Buffer
	if err := f.front.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "als_shard_retries_total{") {
		t.Errorf("4xx reply was retried:\n%s", buf.String())
	}
}
