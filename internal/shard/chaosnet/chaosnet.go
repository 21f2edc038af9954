// Package chaosnet injects deterministic network faults into the distributed
// trainer's TCP exchange, mirroring checkpoint.MemFS.Faults for the wire: a
// Plan names frames by ordinal on a specific rank's connection and a fault
// action (sever, corrupt, truncate, drop, delay), and Wrap turns an accepted
// coordinator-side net.Conn into one that executes the plan.
//
// The wrapper understands the shard framing — a little-endian uint64 body
// length, the body (first byte = frame kind), and a 4-byte CRC-32C trailer —
// and counts frames per connection and direction as they stream through, so
// "sever rank 1's third inbound frame" means the same bytes on every run.
// Liveness heartbeats (frame kind 7) pass through without advancing the
// ordinal: their timing is wall-clock-driven, so counting them would make
// plans nondeterministic. A connection's rank is learned from its own first
// inbound frame (the hello), which the wrapper holds back until the rank is
// parsed — so even the hello itself is addressable by rank. Faults are
// one-shot: a claimed fault never re-fires, so the respawned connection that
// replaces a severed one runs clean instead of dying in a loop.
package chaosnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/framing"
)

// The pieces of the shard frame layout the wrapper parses — package framing's
// definitions, the ones internal/shard's protocol writes by.
const (
	lenPrefix     = framing.LenPrefix
	prologueLen   = framing.PrologueLen
	crcTrailer    = framing.CRCTrailer
	kindHello     = framing.KindHello
	kindHeartbeat = framing.KindHeartbeat
	helloBodyLen  = framing.HelloBodyLen
)

// Dir is the direction of a frame relative to the coordinator.
type Dir uint8

const (
	// In is worker → coordinator traffic (hellos, factor shards, errors).
	In Dir = iota
	// Out is coordinator → worker traffic (config, seeds, broadcasts).
	Out
)

func (d Dir) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// Action is what happens to the targeted frame.
type Action uint8

const (
	// Sever closes the connection at the frame boundary, before any of the
	// frame's bytes pass — the abrupt-death case (kill -9, network cut).
	Sever Action = iota
	// Corrupt flips one deterministically-chosen payload bit, so the frame
	// arrives well-formed but fails its CRC — the silent-corruption case.
	Corrupt
	// Truncate forwards roughly half the frame and then closes — the
	// mid-write crash case.
	Truncate
	// Drop swallows the whole frame but keeps the connection open — the
	// lost-message case, detectable only by a deadline.
	Drop
	// Delay stalls the frame's first byte for the configured duration — the
	// hung-worker case, detectable by missed heartbeats.
	Delay
)

func (a Action) String() string {
	switch a {
	case Sever:
		return "sever"
	case Corrupt:
		return "corrupt"
	case Truncate:
		return "trunc"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	}
	return "action" + strconv.Itoa(int(a))
}

// Fault targets one frame of one rank's connection. Frame ordinals are
// 1-based and count non-heartbeat frames per direction, so In frame 1 is the
// hello and Out frame 1 is the config.
type Fault struct {
	Rank   int
	Dir    Dir
	Frame  int
	Action Action
	Delay  time.Duration // Delay action only
}

func (f Fault) String() string {
	s := fmt.Sprintf("%s=%d:%s:%d", f.Action, f.Rank, f.Dir, f.Frame)
	if f.Action == Delay {
		s += ":" + f.Delay.String()
	}
	return s
}

// Plan is a deterministic fault schedule shared by every connection the
// coordinator wraps. The zero Plan injects nothing but still counts frames,
// which is how tests enumerate the frame space before sweeping it.
type Plan struct {
	Seed int64

	mu       sync.Mutex
	faults   []*armedFault
	observed map[obsKey]int
	fired    int
}

type armedFault struct {
	Fault
	fired bool
}

type obsKey struct {
	rank int
	dir  Dir
}

// NewPlan builds a plan from a seed (feeding Corrupt's bit choice) and a
// fault list.
func NewPlan(seed int64, faults ...Fault) *Plan {
	p := &Plan{Seed: seed, observed: map[obsKey]int{}}
	for _, f := range faults {
		p.faults = append(p.faults, &armedFault{Fault: f})
	}
	return p
}

// ParsePlan parses the -net-chaos flag syntax: comma-separated
// action=rank:dir:frame entries (dir "in" or "out", frame 1-based), a
// delay entry carrying a trailing duration, and an optional seed=N.
//
//	sever=1:in:3,corrupt=0:out:2,delay=1:in:4:2s,seed=7
func ParsePlan(spec string) (*Plan, error) {
	p := NewPlan(1, nil...)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("chaosnet: %q is not key=value", part)
		}
		if key == "seed" {
			seed, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaosnet: bad seed %q: %v", val, err)
			}
			p.Seed = seed
			continue
		}
		var action Action
		switch key {
		case "sever":
			action = Sever
		case "corrupt":
			action = Corrupt
		case "trunc", "truncate":
			action = Truncate
		case "drop":
			action = Drop
		case "delay":
			action = Delay
		default:
			return nil, fmt.Errorf("chaosnet: unknown fault %q (want sever/corrupt/trunc/drop/delay/seed)", key)
		}
		fields := strings.Split(val, ":")
		want := 3
		if action == Delay {
			want = 4
		}
		if len(fields) != want {
			return nil, fmt.Errorf("chaosnet: %s wants %d colon-separated fields, got %q", key, want, val)
		}
		rank, err := strconv.Atoi(fields[0])
		if err != nil || rank < 0 {
			return nil, fmt.Errorf("chaosnet: bad rank %q", fields[0])
		}
		var dir Dir
		switch fields[1] {
		case "in":
			dir = In
		case "out":
			dir = Out
		default:
			return nil, fmt.Errorf("chaosnet: bad direction %q (want in/out)", fields[1])
		}
		frame, err := strconv.Atoi(fields[2])
		if err != nil || frame < 1 {
			return nil, fmt.Errorf("chaosnet: bad frame ordinal %q (1-based)", fields[2])
		}
		f := Fault{Rank: rank, Dir: dir, Frame: frame, Action: action}
		if action == Delay {
			d, err := time.ParseDuration(fields[3])
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("chaosnet: bad delay %q", fields[3])
			}
			f.Delay = d
		}
		p.faults = append(p.faults, &armedFault{Fault: f})
	}
	return p, nil
}

// String renders the plan in ParsePlan syntax.
func (p *Plan) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	parts := []string{"seed=" + strconv.FormatInt(p.Seed, 10)}
	for _, f := range p.faults {
		parts = append(parts, f.Fault.String())
	}
	return strings.Join(parts, ",")
}

// Faults returns a copy of the plan's fault list.
func (p *Plan) Faults() []Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Fault, len(p.faults))
	for i, f := range p.faults {
		out[i] = f.Fault
	}
	return out
}

// Fired reports how many faults have been claimed so far.
func (p *Plan) Fired() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// Frames reports how many non-heartbeat frames have streamed through wrapped
// connections of the given rank and direction — the sweep enumerator.
func (p *Plan) Frames(rank int, d Dir) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.observed[obsKey{rank, d}]
}

// Ranks lists the ranks observed so far, sorted.
func (p *Plan) Ranks() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := map[int]bool{}
	for k := range p.observed {
		seen[k.rank] = true
	}
	var out []int
	for r := range seen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

func (p *Plan) observe(rank int, d Dir) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.observed[obsKey{rank, d}]++
	return p.observed[obsKey{rank, d}]
}

// claim returns the fault targeting (rank, dir, frame), at most once ever.
func (p *Plan) claim(rank int, d Dir, frame int) *Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.faults {
		if !f.fired && f.Rank == rank && f.Dir == d && f.Frame == frame {
			f.fired = true
			p.fired++
			fc := f.Fault
			return &fc
		}
	}
	return nil
}

// Wrap returns c with the plan applied. Call it on each connection the
// coordinator accepts; the wrapper identifies the peer's rank from the hello
// frame it relays. A nil plan returns c unchanged.
func (p *Plan) Wrap(c net.Conn) net.Conn {
	if p == nil {
		return c
	}
	cc := &conn{Conn: c, plan: p, rscratch: make([]byte, 32<<10)}
	cc.rank.Store(rankUnknown)
	cc.rd.dir = In
	cc.rd.reset()
	cc.wr.dir = Out
	cc.wr.reset()
	return cc
}

const (
	rankUnknown int32 = -2 // hello not yet parsed
	rankNone    int32 = -1 // first frame was not a well-formed hello
)

// errSevered is what reads and writes return once an injected sever fires;
// the underlying connection is closed, so the peer fails too.
var errSevered = fmt.Errorf("chaosnet: connection severed (injected)")

// timeoutError is returned when an injected delay outlasts the caller's
// deadline; it satisfies net.Error.Timeout() like a real deadline miss.
type timeoutError struct{}

func (timeoutError) Error() string   { return "chaosnet: injected stall: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// conn is one wrapped connection: an independent frame-parsing state machine
// per direction, transformed-read leftovers, and deadline mirrors so an
// injected delay can honor SetReadDeadline the way a real stall would.
type conn struct {
	net.Conn
	plan *Plan
	rank atomic.Int32

	rmu      sync.Mutex
	rd       dirState
	rq       []byte // transformed bytes awaiting delivery
	rerr     error  // sticky error delivered after rq drains
	rscratch []byte

	wmu sync.Mutex
	wr  dirState

	rdl atomic.Int64 // read deadline, unix nanos (0 = none)
	wdl atomic.Int64

	closed atomic.Bool
}

// dirState parses one direction's frame stream incrementally — length
// prefixes and prologues may be split across arbitrarily small Read/Write
// calls — and carries the active fault's per-frame effects.
type dirState struct {
	dir     Dir
	frame   int    // non-heartbeat ordinal, 1-based once inFrame
	held    []byte // prologue bytes withheld until the frame is classified
	inFrame bool
	kind    byte
	total   int // wire bytes of the current frame: 8 + bodyLen + 4
	pos     int // bytes of the current frame already emitted or consumed

	drop    bool
	cutAt   int // sever once pos reaches this offset (-1 = none)
	flipAt  int // flip flipBit at this wire offset (-1 = none)
	flipBit uint8
}

func (d *dirState) reset() {
	d.inFrame = false
	d.held = d.held[:0]
	d.kind = 0
	d.total = 0
	d.pos = 0
	d.drop = false
	d.cutAt = -1
	d.flipAt = -1
}

// process feeds raw stream bytes through the direction's state machine,
// appending the (possibly transformed) output to out. It returns errSevered
// when an injected sever or truncate closes the connection mid-chunk; bytes
// already appended to out are still valid and must be delivered first. An
// injected delay that outlasts the caller's deadline returns a timeout error
// mid-frame; re-entry resumes with the withheld prologue, never
// reclassifying (so frame ordinals and one-shot faults stay exact).
func (c *conn) process(d *dirState, in, out []byte) ([]byte, error) {
	for {
		if d.inFrame {
			// Flush any prologue withheld across a stall before touching in.
			if len(d.held) > 0 {
				var err error
				out, err = c.emit(d, d.held, out)
				d.held = d.held[:0]
				if err != nil {
					return out, err
				}
				if d.pos == d.total {
					d.reset()
				}
				continue
			}
			if len(in) == 0 {
				return out, nil
			}
			n := d.total - d.pos
			if n > len(in) {
				n = len(in)
			}
			var err error
			out, err = c.emit(d, in[:n], out)
			in = in[n:]
			if err != nil {
				return out, err
			}
			if d.pos == d.total {
				d.reset()
			}
			continue
		}
		if len(in) == 0 {
			return out, nil
		}
		// Accumulate the prologue: 9 bytes classify the frame; the
		// connection's first inbound frame needs 13 so the hello's rank can
		// arm rank-targeted faults before any byte is released.
		need := prologueLen
		if d.dir == In && c.rank.Load() == rankUnknown {
			need = lenPrefix + helloBodyLen
		}
		take := need - len(d.held)
		if take > len(in) {
			take = len(in)
		}
		d.held = append(d.held, in[:take]...)
		in = in[take:]
		if len(d.held) < need {
			return out, nil // mid-prologue; wait for more bytes
		}
		bodyLen := binary.LittleEndian.Uint64(d.held[:lenPrefix])
		kind := d.held[lenPrefix]
		if d.dir == In && c.rank.Load() == rankUnknown {
			rank, ok := framing.HelloRank(d.held[prologueLen:])
			if !ok || kind != kindHello || bodyLen != helloBodyLen {
				rank = rankNone
			}
			c.rank.Store(rank)
		}
		d.inFrame = true
		d.kind = kind
		d.total = lenPrefix + int(bodyLen) + crcTrailer
		d.pos = 0
		if kind != kindHeartbeat {
			d.frame = c.plan.observe(int(c.rank.Load()), d.dir)
			if f := c.plan.claim(int(c.rank.Load()), d.dir, d.frame); f != nil {
				switch f.Action {
				case Sever:
					c.sever()
					return out, errSevered
				case Delay:
					if err := c.stall(d.dir, f.Delay); err != nil {
						return out, err
					}
				case Drop:
					d.drop = true
				case Corrupt:
					// Flip one bit somewhere in body-after-kind or the CRC
					// trailer: either way the checksum cannot match.
					span := d.total - prologueLen
					h := mix(uint64(c.plan.Seed) ^ mix(uint64(f.Rank)<<32|uint64(f.Frame)<<8|uint64(f.Dir)))
					d.flipAt = prologueLen + int(h>>8)%span
					d.flipBit = uint8(1) << (h & 7)
				case Truncate:
					d.cutAt = (prologueLen + d.total) / 2
				}
			}
		}
	}
}

// emit applies the active frame's drop/corrupt/truncate effects to a run of
// its bytes. Input is never mutated: corrupted bytes are flipped in the
// appended copy, which keeps the io.Writer contract for the Write path.
func (c *conn) emit(d *dirState, b []byte, out []byte) ([]byte, error) {
	if d.cutAt >= 0 && d.pos+len(b) > d.cutAt {
		keep := d.cutAt - d.pos
		if keep > 0 {
			out = append(out, b[:keep]...)
			d.pos += keep
		}
		c.sever()
		return out, errSevered
	}
	if !d.drop {
		start := len(out)
		out = append(out, b...)
		if d.flipAt >= d.pos && d.flipAt < d.pos+len(b) {
			out[start+d.flipAt-d.pos] ^= d.flipBit
		}
	}
	d.pos += len(b)
	return out, nil
}

func (c *conn) sever() {
	if c.closed.CompareAndSwap(false, true) {
		c.Conn.Close()
	}
}

// stall sleeps for the injected delay, but never past the direction's
// mirrored deadline: if the deadline lands first it returns a Timeout()
// error, exactly as a genuinely hung peer would look to the caller.
func (c *conn) stall(d Dir, delay time.Duration) error {
	dl := c.rdl.Load()
	if d == Out {
		dl = c.wdl.Load()
	}
	until := time.Now().Add(delay)
	if dl != 0 {
		deadline := time.Unix(0, dl)
		if deadline.Before(until) {
			time.Sleep(time.Until(deadline))
			return timeoutError{}
		}
	}
	time.Sleep(delay)
	return nil
}

func (c *conn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	for len(c.rq) == 0 {
		if c.rerr != nil {
			return 0, c.rerr
		}
		n, err := c.Conn.Read(c.rscratch)
		if n > 0 {
			out, perr := c.process(&c.rd, c.rscratch[:n], c.rq[:0])
			c.rq = out
			if perr != nil {
				c.rerr = perr
			}
		}
		if err != nil && len(c.rq) == 0 {
			return 0, err
		}
		if err != nil {
			c.rerr = err
		}
	}
	n := copy(p, c.rq)
	rest := copy(c.rq, c.rq[n:])
	c.rq = c.rq[:rest]
	return n, nil
}

func (c *conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	out, perr := c.process(&c.wr, p, nil)
	if len(out) > 0 {
		if _, err := c.Conn.Write(out); err != nil {
			return 0, err
		}
	}
	if perr != nil {
		return 0, perr
	}
	return len(p), nil
}

func (c *conn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func (c *conn) SetDeadline(t time.Time) error {
	c.rdl.Store(nanosOf(t))
	c.wdl.Store(nanosOf(t))
	return c.Conn.SetDeadline(t)
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.rdl.Store(nanosOf(t))
	return c.Conn.SetReadDeadline(t)
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.wdl.Store(nanosOf(t))
	return c.Conn.SetWriteDeadline(t)
}

func nanosOf(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// mix is splitmix64's finalizer — a cheap, seed-stable hash for picking the
// corrupted bit.
func mix(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}
