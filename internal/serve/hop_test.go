package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/framing"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rtrace"
)

var updateHop = flag.Bool("update-golden", false, "rewrite testdata/hop/*.bin")

// goldenSnapshot is the snapshot the golden replies come from: a slice of
// three items at offset 10 with external item IDs.
func goldenSnapshot() *Snapshot {
	return &Snapshot{Version: "ckpt-6", Seq: 7, ItemOffset: 10,
		Model: &core.Model{K: 2, ItemIDs: []int64{1010, 1011, 1012}}}
}

// hopGoldens builds one frame of every request and reply kind the hop has.
func hopGoldens() map[string][]byte {
	request := func(kind byte, q hopRequest) []byte { return framing.Append(nil, kind, q.encode(nil, kind)) }
	reply := func(p []byte) []byte { return framing.Append(nil, hopReply, p) }
	sn := goldenSnapshot()
	ok := appendReplyHeader(nil, http.StatusOK, sn)
	traced := rtrace.SpanContext{Trace: 0x0807060504030201, Span: 0x1817161514131211, Sampled: true}
	return map[string][]byte{
		"recommend.bin": request(hopRecommend, hopRequest{trace: traced, user: 500, n: 10}),
		"score.bin":     request(hopScore, hopRequest{n: 5, x: []float32{0.5, -1.25, 2}, items: []int32{3, 7}}),
		"partials.bin":  request(hopPartials, hopRequest{items: []int32{1, 6, 11}, ratings: []float32{5, 3.5, 4}}),
		"purge.bin":     request(hopPurge, hopRequest{user: 501}),
		"info.bin":      request(hopInfo, hopRequest{trace: traced}),
		"reply-scored.bin": reply(appendScored(ok, sn,
			[]metrics.Scored{{Item: 2, Score: 4.75}, {Item: 0, Score: 1.5}})),
		"reply-partials.bin": reply(appendPartialsReply(ok, 2, 3, []float32{1, 2, 3, 4, 5})),
		"reply-purge.bin":    reply(binary.LittleEndian.AppendUint32(ok, 1)),
		"reply-info.bin":     reply(appendInfo(ok, shardInfo{Users: 4, Items: 40, K: 2, Lambda: 0.05, WeightedLambda: true, Compact: true})),
		"reply-error.bin":    reply(appendError(nil, sn, &statusError{code: http.StatusNotFound, msg: "user 9 not in the model"})),
	}
}

// reencodeHop decodes a golden frame the way its receiver does and encodes
// what it got back the way its sender does.
func reencodeHop(t *testing.T, name string, frame []byte) []byte {
	t.Helper()
	kind, p, _, err := framing.Read(bytes.NewReader(frame), nil, len(frame))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if kind != hopReply {
		var q hopRequest
		if err := q.decode(kind, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return framing.Append(nil, kind, q.encode(nil, kind))
	}
	var version string
	h, body, err := parseReplyHeader(p, &version)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sn := &Snapshot{Version: h.version, Seq: h.seq, Model: &core.Model{}}
	b := appendReplyHeader(nil, h.status, sn)
	switch name {
	case "reply-scored.bin":
		var rr RecommendResponse
		err = decodeScored(h, body, &rr)
		// The items come back as they would from a full snapshot whose
		// item IDs are the reply's.
		var scored []metrics.Scored
		for _, it := range rr.Items {
			for len(sn.Model.ItemIDs) <= it.Item {
				sn.Model.ItemIDs = append(sn.Model.ItemIDs, 0)
			}
			sn.Model.ItemIDs[it.Item] = it.ID
			scored = append(scored, metrics.Scored{Item: it.Item, Score: it.Score})
		}
		b = appendScored(b, sn, scored)
	case "reply-partials.bin":
		var pp partials
		err = decodePartials(h, body, &pp)
		b = appendPartialsReply(b, pp.K, pp.Local, pp.Terms)
	case "reply-purge.bin":
		var n int
		n, err = decodePurge(body)
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
	case "reply-info.bin":
		var in shardInfo
		err = decodeInfo(h, body, &in)
		b = appendInfo(b, in)
	case "reply-error.bin":
		b = appendError(nil, sn, &statusError{code: h.status, msg: string(body)})
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return framing.Append(nil, hopReply, b)
}

// TestHopGoldenFrames pins the hop's bytes: every request and reply kind
// encodes to its testdata/hop file (-update-golden rewrites them after a
// deliberate format change), and decoding each file and encoding what came
// out gives the file back, byte for byte.
func TestHopGoldenFrames(t *testing.T) {
	dir := filepath.Join("testdata", "hop")
	for name, frame := range hopGoldens() {
		path := filepath.Join(dir, name)
		if *updateHop {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, frame, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("%s: encoder wrote\n%x\nthe golden file holds\n%x", name, frame, want)
		}
		if got := reencodeHop(t, name, want); !bytes.Equal(got, want) {
			t.Errorf("%s: decoded and re-encoded as\n%x\nwant\n%x", name, got, want)
		}
	}
}

// FuzzHopFrame feeds arbitrary bytes to both ends of the hop: the replica's
// whole frame path (framing, request decoder, admission and the kind's
// core) and the frontend's reply decoders. Nothing may panic, and no
// decoder may allocate for bytes the payload does not hold. The goldens
// and a few hostile frames are the seed corpus, which runs as a plain test
// in every lane.
func FuzzHopFrame(f *testing.F) {
	srv := New(Config{})
	rep, err := NewReplica(srv, ReplicaConfig{Index: 1, Count: 2})
	if err != nil {
		f.Fatal(err)
	}
	rep.Swap(linearModel(1, 3, 16, 2), nil, "v1")
	goldens := hopGoldens()
	names := make([]string, 0, len(goldens))
	for name := range goldens {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(goldens[name])
	}
	f.Add(framing.Append(nil, hopPartials, binary.LittleEndian.AppendUint32([]byte{0}, 1e9)))
	f.Add(framing.Append(nil, hopScore, []byte{2, 1, 0, 0, 0}))
	f.Add(framing.Append(nil, hopInfo, []byte{0, 0}))
	f.Add(framing.Append(nil, hopReply, []byte{200, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, hopRecommend})

	f.Fuzz(func(t *testing.T, data []byte) {
		kind, p, _, err := framing.Read(bytes.NewReader(data), nil, 1<<16)
		if err != nil {
			if len(data) == 0 {
				return
			}
			kind, p = data[0], data[1:]
		}
		var st hopScratch
		if reply := rep.answer(&st, kind, p, nil); len(reply) < 2 {
			t.Fatalf("kind %d: %d-byte reply", kind, len(reply))
		}
		// The decoders allocate only for bytes the payload holds: a scored
		// item is 24 bytes in memory for its 20 on the wire.
		var version string
		if n := allocated(func() {
			var q hopRequest
			q.decode(kind, p)
			if h, body, err := parseReplyHeader(p, &version); err == nil {
				var rr RecommendResponse
				decodeScored(h, body, &rr)
				var pp partials
				decodePartials(h, body, &pp)
				decodePurge(body)
				var in shardInfo
				decodeInfo(h, body, &in)
			}
		}); n > 64<<10+2*uint64(len(p)) {
			t.Fatalf("a %d-byte payload allocated %d bytes", len(p), n)
		}
	})
}

// allocated runs fn and returns the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHopDecodersBoundAllocation: a 64-byte frame that declares 10⁹ items
// fails every decoder that reads a count, and a prologue that declares 10⁹
// bytes over a short stream fails framing.Read, each after allocating less
// than 1 MiB.
func TestHopDecodersBoundAllocation(t *testing.T) {
	huge := func(prefix ...byte) []byte {
		p := binary.LittleEndian.AppendUint32(prefix, 1e9)
		return append(p, make([]byte, 64-framing.PrologueLen-framing.CRCTrailer-len(p))...)
	}
	header := appendReplyHeader(nil, http.StatusOK, nil)
	cases := []struct {
		name   string
		decode func() error
	}{
		{"partials request", func() error { var q hopRequest; return q.decode(hopPartials, huge(0)) }},
		{"score request", func() error { var q hopRequest; return q.decode(hopScore, huge(0, 5, 0, 0, 0)) }},
		{"scored reply", func() error {
			h, body, err := parseReplyHeader(append(header, huge()...), new(string))
			if err != nil {
				return err
			}
			return decodeScored(h, body, new(RecommendResponse))
		}},
		{"info reply", func() error {
			h, body, err := parseReplyHeader(append(header, huge()...), new(string))
			if err != nil {
				return err
			}
			return decodeInfo(h, body, new(shardInfo))
		}},
		{"reply version", func() error {
			_, _, err := parseReplyHeader(append(header[:10:10], huge()...), new(string))
			return err
		}},
		{"frame", func() error {
			stream := binary.LittleEndian.AppendUint64(nil, 1e9)
			stream = append(stream, make([]byte, 56)...)
			_, _, _, err := framing.Read(bytes.NewReader(stream), nil, maxHopReply)
			return err
		}},
	}
	for _, c := range cases {
		var err error
		if n := allocated(func() { err = c.decode() }); n >= 1<<20 {
			t.Errorf("%s: allocated %d bytes", c.name, n)
		}
		if err == nil {
			t.Errorf("%s: a frame declaring 10⁹ items decoded", c.name)
		}
	}
}

// rawHop is a test's own end of a frame connection to a replica.
type rawHop struct {
	t *testing.T
	c *hopConn
}

func dialRawHop(t *testing.T, url string) *rawHop {
	t.Helper()
	reg := obs.NewRegistry()
	p := &hopPool{addr: strings.TrimPrefix(url, "http://"), host: strings.TrimPrefix(url, "http://"), path: hopPath,
		dials: reg.Counter("dials", "test").With()}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := p.dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.close)
	c.c.SetDeadline(time.Now().Add(5 * time.Second))
	return &rawHop{t: t, c: c}
}

// send writes one kind frame with payload p and returns the reply's status
// and body; ok is false when the connection ended instead.
func (h *rawHop) send(kind byte, p []byte) (status int, body string, ok bool) {
	h.t.Helper()
	if _, err := h.c.c.Write(framing.Append(nil, kind, p)); err != nil {
		return 0, "", false
	}
	rk, rp, _, err := framing.Read(h.c.br, nil, maxHopReply)
	if err != nil {
		return 0, "", false
	}
	if rk != hopReply {
		h.t.Fatalf("reply kind %d", rk)
	}
	hd, b, err := parseReplyHeader(rp, &h.c.version)
	if err != nil {
		h.t.Fatal(err)
	}
	return hd.status, string(b), true
}

// closed reports whether the replica has ended the connection.
func (h *rawHop) closed() bool {
	_, err := h.c.br.ReadByte()
	return errors.Is(err, io.EOF)
}

// TestHopBodyLimits: a replica reads a request frame's payload up to
// catalogBodyLimit — what a valid request can need. A payload of exactly
// the limit is decoded and judged on its content; one byte more is refused
// with 413 from the prologue alone, and the connection, whose stream is
// then out of step, is closed. So is a prologue that declares 10⁹ bytes,
// after the replica allocated less than 1 MiB for it.
func TestHopBodyLimits(t *testing.T) {
	const items, k = 30, 2
	f := newTestFleet(t, Config{}, linearModel(1, 2, items, k), 2, FrontendConfig{}, nil)
	shardURL := f.front.cfg.Shards[0]
	limit := int(catalogBodyLimit(f.replicas[0].srv.Current()))
	if want := 64 + 8*items + 4*k; limit != want {
		t.Fatalf("catalogBodyLimit = %d, want %d", limit, want)
	}
	// Each request is valid and then padded with zeros to its size.
	valid := map[byte][]byte{
		hopPartials: (&hopRequest{items: []int32{1}, ratings: []float32{5}}).encode(nil, hopPartials),
		hopScore:    (&hopRequest{n: 3, x: []float32{1, 0}}).encode(nil, hopScore),
		hopPurge:    (&hopRequest{user: 1}).encode(nil, hopPurge),
	}
	for kind, p := range valid {
		name := hopEndpoint(kind)
		h := dialRawHop(t, shardURL)
		if status, body, ok := h.send(kind, p); !ok || status != http.StatusOK {
			t.Fatalf("%s: valid request answered %d %q", name, status, body)
		}
		atLimit := append(p, make([]byte, limit-len(p))...)
		if status, body, ok := h.send(kind, atLimit); !ok || status != http.StatusBadRequest || !strings.Contains(body, "past the end") {
			t.Errorf("%s at the limit: %d %q, want 400 for its trailing bytes", name, status, body)
		}
		if status, body, ok := h.send(kind, p); !ok || status != http.StatusOK {
			t.Errorf("%s after a request at the limit: %d %q, want the connection still serving", name, status, body)
		}
		if status, body, ok := h.send(kind, append(atLimit, 0)); !ok || status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s one byte over the limit: %d %q, want 413", name, status, body)
		}
		if !h.closed() {
			t.Errorf("%s: the connection stayed open after a 413", name)
		}
	}

	h := dialRawHop(t, shardURL)
	prologue := append(binary.LittleEndian.AppendUint64(nil, 1e9), hopPartials)
	var status int
	n := allocated(func() {
		h.c.c.Write(prologue)
		rk, rp, _, err := framing.Read(h.c.br, nil, maxHopReply)
		if err != nil || rk != hopReply {
			t.Fatalf("declared 10⁹ bytes: reply kind %d, %v", rk, err)
		}
		hd, _, _ := parseReplyHeader(rp, new(string))
		status = hd.status
	})
	if status != http.StatusRequestEntityTooLarge || n >= 1<<20 {
		t.Errorf("declared 10⁹ bytes: status %d after %d bytes allocated, want 413 under 1 MiB", status, n)
	}
	if !h.closed() {
		t.Error("the connection stayed open after a 413")
	}
}

// TestHopCodecAllocs pins a leg's codec work on pooled buffers: encoding a
// request frame, reading a frame, decoding a request into a connection's
// hopRequest and encoding replies allocate nothing; decoding a reply
// allocates only the slice it returns.
func TestHopCodecAllocs(t *testing.T) {
	m := gaussModel(3, 40, 8)
	srv := New(Config{})
	rep, err := NewReplica(srv, ReplicaConfig{Index: 0, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	sn := rep.Swap(m, nil, "v1")
	score := hopRequest{trace: rtrace.SpanContext{Trace: 1, Span: 2, Sampled: true},
		n: 10, x: m.X.Row(0), items: []int32{1, 5, 9, 30}}
	part := hopRequest{items: []int32{1, 5, 9, 30}, ratings: []float32{5, 4, 3, 2}}
	scored := []metrics.Scored{{Item: 3, Score: 2}, {Item: 1, Score: 1}}
	var c hopConn
	var st hopScratch
	var rd bytes.Reader
	var version string
	var reply []byte
	for _, c := range []struct {
		name string
		want float64
		run  func()
	}{
		{"encode request", 0, func() {
			c.body = score.encode(c.body[:0], hopScore)
			c.out = framing.Append(c.out[:0], hopScore, c.body)
		}},
		{"read frame", 0, func() {
			rd.Reset(c.out)
			_, _, st.in, _ = framing.Read(&rd, st.in, maxHopReply)
		}},
		{"decode request", 0, func() { st.req.decode(hopScore, c.body) }},
		{"encode scored reply", 0, func() {
			st.reply = appendScored(appendReplyHeader(st.reply[:0], http.StatusOK, sn), sn, scored)
			reply = st.reply
		}},
		{"decode scored reply", 1, func() {
			h, body, _ := parseReplyHeader(reply, &version)
			var rr RecommendResponse
			decodeScored(h, body, &rr)
		}},
		{"encode partials reply", 0, func() {
			local := st.partials(sn, part.items, part.ratings)
			st.reply = appendPartialsReply(appendReplyHeader(st.reply[:0], http.StatusOK, sn), m.K, local, st.terms)
		}},
		{"encode info reply", 0, func() {
			st.reply = appendInfo(appendReplyHeader(st.reply[:0], http.StatusOK, sn), snapshotInfo(sn))
			reply = st.reply
		}},
		{"decode info reply", 0, func() {
			h, body, _ := parseReplyHeader(reply, &version)
			var in shardInfo
			decodeInfo(h, body, &in)
		}},
	} {
		c.run()
		if got := testing.AllocsPerRun(100, c.run); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
}

// BenchmarkShardHop is a frontend and two replicas over loopback, driven
// through the frontend's handler without an inbound socket: what a request
// costs beyond its scans, at the hop.
func BenchmarkShardHop(b *testing.B) {
	const items = 2000
	f := newTestFleet(b, Config{}, gaussModel(50, items, 32), 2, FrontendConfig{}, nil)
	h := f.front.Handler()
	foldin := mustJSON(b, fleetFoldIn(60))
	for _, c := range []struct {
		name string
		req  func() *http.Request
	}{
		{"recommend", func() *http.Request { return httptest.NewRequest("GET", "/v1/recommend?user=7&n=10", nil) }},
		{"foldin", func() *http.Request {
			return httptest.NewRequest("POST", "/v1/foldin", strings.NewReader(foldin))
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, c.req())
					if rec.Code != http.StatusOK {
						b.Errorf("%s: HTTP %d %s", c.name, rec.Code, rec.Body)
						return
					}
				}
			})
		})
	}
}
