package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
)

// FuzzRequestDecoders posts one arbitrary body to every JSON endpoint of
// both edges and of a shard replica (the hop's frames are FuzzHopFrame's).
// Whatever the bytes, no handler may panic (there is no recover between a
// handler and the test), an endpoint answers 2xx only for a body that
// decodes as its request type, and
// neither edge's /v1/foldin answers 2xx for ratings core.CheckFoldIn
// rejects — nor do the two edges disagree on the status. The seed corpus
// runs as a plain test in every lane.
func FuzzRequestDecoders(f *testing.F) {
	const items, maxN, maxFoldIn = 16, 12, 4
	cfg := Config{MaxN: maxN, MaxFoldInItems: maxFoldIn}
	m := linearModel(1, 2, items, 2)
	server := New(cfg)
	server.Swap(m, nil, "v1")
	shard := New(cfg)
	f.Cleanup(shard.Close)
	replica, err := NewReplica(shard, ReplicaConfig{Index: 0, Count: 2})
	if err != nil {
		f.Fatal(err)
	}
	replica.Swap(m, nil, "v1")
	frontURL := newTestFrontend(f, cfg, m, 2)

	// The one model a fuzzed /admin/swap can name keeps the catalog at
	// `items`, so the fold-in oracle below stays right after it.
	modelPath := saveModel(f, m)

	for _, seed := range []string{
		``, `{}`, `null`, `[]`, `{not json`, `{"items":`,
		`{"items":[0,1,2,3],"ratings":[1,2,3,4]}`,
		`{"items":[0,1,2,3,4],"ratings":[1,2,3,4,5]}`,
		`{"items":[1,2],"ratings":[5]}`,
		`{"items":[3,3],"ratings":[5,4]}`,
		`{"items":[16],"ratings":[5]}`,
		`{"items":[-1],"ratings":[5]}`,
		`{"items":[1],"ratings":[NaN]}`,
		`{"items":[1],"ratings":[null]}`,
		`{"items":[1],"ratings":[1e39]}`,
		`{"items":[2147483648],"ratings":[1]}`,
		`{"items":[1.5],"ratings":[1]}`,
		`{"items":[1],"ratings":[5],"n":13}`,
		`{"items":[1],"ratings":[5],"n":-1,"lambda":-3,"user":0}`,
		`{"items":[1],"ratings":[5]} trailing`,
		`{"x":[1,0],"n":3,"exclude":[0,0,15,99,-4]}`,
		`{"x":[1],"n":3}`,
		`{"x":[1,0],"n":10001}`,
		`{"x":[1e39,0],"n":1}`,
		`{"user":0}`, `{"user":-9223372036854775808}`, `{"user":"0"}`,
		`{"model":""}`, `{"model":"/nonexistent/model.bin","one_based":false}`,
		fmt.Sprintf(`{"model":%q,"version":"v2"}`, modelPath),
		fmt.Sprintf(`{"model":%q,"ratings":%q}`, modelPath, modelPath),
		paddedBody(`{"items":[1],"ratings":[5]`, foldInBodyLimit(maxFoldIn)+1),
	} {
		f.Add([]byte(seed))
	}

	serverH, replicaH := server.Handler(), replica.Handler()
	post := func(h http.Handler, path string, body []byte) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		return rec.Code
	}
	decodes := func(body []byte, into any) bool {
		return json.NewDecoder(bytes.NewReader(body)).Decode(into) == nil
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var fold FoldInRequest
		foldOK := decodes(body, &fold) && core.CheckFoldIn(fold.Items, fold.Ratings, items) == nil
		atServer := post(serverH, "/v1/foldin", body)
		resp, err := http.Post(frontURL+"/v1/foldin", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if atServer != resp.StatusCode {
			t.Errorf("/v1/foldin: server answered %d, frontend %d", atServer, resp.StatusCode)
		}
		if atServer/100 == 2 && !foldOK {
			t.Errorf("/v1/foldin answered %d for ratings CheckFoldIn rejects", atServer)
		}

		for _, c := range []struct {
			h    http.Handler
			path string
			into any
		}{
			{serverH, "/admin/swap", new(swapRequest)},
			{replicaH, "/admin/swap", new(swapRequest)},
		} {
			if code := post(c.h, c.path, body); code/100 == 2 && !decodes(body, c.into) {
				t.Errorf("%s answered %d for a body that is not its request", c.path, code)
			}
		}
	})
}
