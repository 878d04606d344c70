// Package shim implements CliqueMap's multi-language access path (§6.2):
// Java, Go, and Python programs reach CliqueMap through a lightweight
// language shim that launches the primary (C++, here Go) client library in
// a subprocess and speaks to it over named pipes.
//
// The paper's rationale is reproduced: no per-language reimplementation of
// the client protocol (the shim only frames requests), one debugging
// surface, and a measurable cost — the pipe hop plus serialization — that
// Figure 6 quantifies per language. The wire format is length-prefixed
// frames carrying internal/wire messages, and the host side can serve any
// Store (normally a cliquemap client).
package shim

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"cliquemap/internal/stats"
	"cliquemap/internal/wire"
)

// MaxFrame bounds a single frame (16 MiB), fail-closed against corrupt
// length prefixes.
const MaxFrame = 16 << 20

// Op identifies the requested operation.
type Op uint8

// Operations supported across the pipe.
const (
	OpPing Op = iota
	OpGet
	OpSet
	OpErase
)

// Request is one shim call.
type Request struct {
	ID    uint64 `wire:"1"`
	Op    Op     `wire:"2"`
	Key   []byte `wire:"3"`
	Value []byte `wire:"4"`
}

// Response answers one Request (matched by ID).
type Response struct {
	ID    uint64 `wire:"1"`
	Found bool   `wire:"2"`
	Value []byte `wire:"3"`
	Err   string `wire:"4"`
}

// Marshal encodes a request.
func (r Request) Marshal() []byte { return wire.Append(nil, &r) }

// UnmarshalRequest decodes a request. Key and Value alias b.
func UnmarshalRequest(b []byte) (r Request, err error) { err = wire.Decode(b, &r); return }

// Marshal encodes a response.
func (r Response) Marshal() []byte { return wire.Append(nil, &r) }

// UnmarshalResponse decodes a response. Value aliases b.
func UnmarshalResponse(b []byte) (r Response, err error) { err = wire.Decode(b, &r); return }

// WriteFrame writes a length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("shim: frame of %d bytes exceeds limit", n)
	}
	return wire.ReadFrameBody(nil, r, int(n))
}

// Store is what the host side serves — normally the primary CliqueMap
// client.
type Store interface {
	Get(ctx context.Context, key []byte) ([]byte, bool, error)
	Set(ctx context.Context, key, value []byte) error
	Erase(ctx context.Context, key []byte) error
}

// Serve runs the host loop: read framed requests from r, execute against
// store, write framed responses to w. Returns on EOF or unrecoverable I/O
// error.
func Serve(ctx context.Context, r io.Reader, w io.Writer, store Store) error {
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		frame, err := ReadFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		req, err := UnmarshalRequest(frame)
		if err != nil {
			return err
		}
		resp := Response{ID: req.ID}
		switch req.Op {
		case OpPing:
			resp.Found = true
		case OpGet:
			v, ok, gerr := store.Get(ctx, req.Key)
			resp.Value, resp.Found = v, ok
			if gerr != nil {
				resp.Err = gerr.Error()
			}
		case OpSet:
			if serr := store.Set(ctx, req.Key, req.Value); serr != nil {
				resp.Err = serr.Error()
			}
		case OpErase:
			if eerr := store.Erase(ctx, req.Key); eerr != nil {
				resp.Err = eerr.Error()
			}
		default:
			resp.Err = fmt.Sprintf("shim: unknown op %d", req.Op)
		}
		if err := WriteFrame(bw, resp.Marshal()); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// Profile calibrates one language binding's overheads for Figure 6. The
// native profile has no pipe hop; shim profiles pay per-op pipe and
// runtime costs plus a per-KB copy penalty.
type Profile struct {
	Name string
	// PipeHop marks the subprocess boundary (all non-native languages).
	PipeHop bool
	// ShimCPUNs is the language-side CPU per op: serialization, syscalls,
	// runtime overhead.
	ShimCPUNs uint64
	// ShimLatencyNs is added op latency from the pipe round trip and
	// scheduler handoffs.
	ShimLatencyNs uint64
	// PerKBNs is the per-KB copy cost across the pipe.
	PerKBNs uint64
}

// Profiles returns the Figure 6 language set in the paper's order.
func Profiles() []Profile {
	return []Profile{
		{Name: "cpp", PipeHop: false, ShimCPUNs: 0, ShimLatencyNs: 0, PerKBNs: 0},
		{Name: "java", PipeHop: true, ShimCPUNs: 6200, ShimLatencyNs: 9000, PerKBNs: 240},
		{Name: "go", PipeHop: true, ShimCPUNs: 4100, ShimLatencyNs: 7000, PerKBNs: 180},
		{Name: "py", PipeHop: true, ShimCPUNs: 52000, ShimLatencyNs: 60000, PerKBNs: 2100},
	}
}

// ProfileFor looks up a language profile by name.
func ProfileFor(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("shim: unknown language %q", name)
}

// Client is the language-shim side: it frames ops over the pipe pair and
// bills the profile's costs. Calls are serialized (one outstanding op per
// pipe, like the production shim's synchronous API).
type Client struct {
	profile Profile
	acct    *stats.CPUAccount

	mu     sync.Mutex
	w      *bufio.Writer
	r      *bufio.Reader
	nextID uint64
	// SimLatencyNs accumulates the modelled extra latency per op; the
	// harness reads and resets it.
	simNs stats.Counter
	ops   stats.Counter
}

// NewClient wraps a pipe pair with a language profile. acct may be nil.
func NewClient(r io.Reader, w io.Writer, profile Profile, acct *stats.CPUAccount) *Client {
	return &Client{
		profile: profile,
		acct:    acct,
		w:       bufio.NewWriter(w),
		r:       bufio.NewReader(r),
	}
}

// Profile returns the client's language profile.
func (c *Client) Profile() Profile { return c.profile }

// OpsDone returns completed ops.
func (c *Client) OpsDone() uint64 { return c.ops.Value() }

// SimLatencyNs returns accumulated modelled shim latency.
func (c *Client) SimLatencyNs() uint64 { return c.simNs.Value() }

func (c *Client) bill(bytes int) uint64 {
	cost := c.profile.ShimCPUNs + uint64(bytes)*c.profile.PerKBNs/1024
	if c.acct != nil && cost > 0 {
		c.acct.Charge("shim-"+c.profile.Name, cost)
	}
	lat := c.profile.ShimLatencyNs + uint64(bytes)*c.profile.PerKBNs/1024
	c.simNs.Add(lat)
	return lat
}

// roundTrip sends req and reads its response.
func (c *Client) roundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	req.ID = c.nextID
	if err := WriteFrame(c.w, req.Marshal()); err != nil {
		return Response{}, err
	}
	if err := c.w.Flush(); err != nil {
		return Response{}, err
	}
	frame, err := ReadFrame(c.r)
	if err != nil {
		return Response{}, err
	}
	resp, err := UnmarshalResponse(frame)
	if err != nil {
		return Response{}, err
	}
	if resp.ID != req.ID {
		return Response{}, fmt.Errorf("shim: response id %d for request %d", resp.ID, req.ID)
	}
	c.ops.Inc()
	return resp, nil
}

// Ping checks liveness of the subprocess.
func (c *Client) Ping() error {
	c.bill(0)
	resp, err := c.roundTrip(Request{Op: OpPing})
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// Get looks up key through the shim, returning the modelled extra latency.
func (c *Client) Get(key []byte) (value []byte, found bool, shimNs uint64, err error) {
	resp, err := c.roundTrip(Request{Op: OpGet, Key: key})
	if err != nil {
		return nil, false, 0, err
	}
	shimNs = c.bill(len(key) + len(resp.Value))
	if resp.Err != "" {
		return nil, false, shimNs, errors.New(resp.Err)
	}
	return resp.Value, resp.Found, shimNs, nil
}

// Set installs key=value through the shim.
func (c *Client) Set(key, value []byte) (shimNs uint64, err error) {
	shimNs = c.bill(len(key) + len(value))
	resp, err := c.roundTrip(Request{Op: OpSet, Key: key, Value: value})
	if err != nil {
		return shimNs, err
	}
	if resp.Err != "" {
		return shimNs, errors.New(resp.Err)
	}
	return shimNs, nil
}

// Erase removes key through the shim.
func (c *Client) Erase(key []byte) error {
	c.bill(len(key))
	resp, err := c.roundTrip(Request{Op: OpErase, Key: key})
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}
