package trace

import (
	"encoding/binary"
	"fmt"
)

// StreamDecoder is the push-based incremental form of Decode: callers feed
// byte segments as they arrive (a growing file tail, an HTTP request body
// read chunk by chunk) and complete records become visible immediately,
// without waiting for the writer to finish. A segment boundary may fall
// anywhere — mid-varint, mid-string, mid-record — and decoding resumes
// exactly where it stopped: the decoder retains the unconsumed tail and
// re-attempts the interrupted unit once more bytes land.
//
// The decoder applies the same wire format, validation limits, capped
// preallocation and callstack interning as Decode, so a fully fed stream
// yields a trace identical to Decode over the same bytes (locked by
// TestStreamDecoderEquivalence). Trailing bytes after the declared record
// count are ignored, as in Decode.
type StreamDecoder struct {
	buf []byte // unconsumed input tail
	off int    // parse offset into buf

	phase int
	err   error

	t     *Trace
	table []string

	nq, nstr, nrec uint64 // declared counts (valid per phase)
	done           uint64 // units completed in the current counting phase

	// Callstack interning, identical to Decode's: distinct stacks share one
	// backing array keyed by their 4-byte-per-frame image.
	stacks  map[string][]int32
	scratch []int32
	key     []byte

	consumed int64 // total bytes consumed off the wire
}

// Decoder phases, in wire order.
const (
	phaseHeader  = iota // magic + version + program
	phaseQueues         // queue count, then (name, consumers)*
	phaseStrings        // string-table count, then entries
	phaseCount          // record count
	phaseRecords        // records
	phaseDone
)

// NewStreamDecoder returns a decoder awaiting the first bytes of a binary
// trace.
func NewStreamDecoder() *StreamDecoder {
	return &StreamDecoder{
		t:      &Trace{QueueConsumers: map[string]int{}},
		stacks: map[string][]int32{},
	}
}

// cursor is a speculative parse position: units parse through it and commit
// only when complete, so an underflow mid-unit leaves the decoder's offset
// untouched for a clean retry.
type cursor struct {
	b []byte
	i int
}

// errShort is the internal "need more bytes" signal; it never escapes Feed.
var errShort = fmt.Errorf("trace: stream underflow")

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.i:])
	if n > 0 {
		c.i += n
		return v, nil
	}
	if n < 0 || len(c.b)-c.i >= binary.MaxVarintLen64 {
		return 0, fmt.Errorf("trace: corrupt varint")
	}
	return 0, errShort
}

func (c *cursor) byte() (byte, error) {
	if c.i >= len(c.b) {
		return 0, errShort
	}
	b := c.b[c.i]
	c.i++
	return b, nil
}

func (c *cursor) str() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > 1<<24 {
		return "", fmt.Errorf("trace: unreasonable string length %d", n)
	}
	if uint64(len(c.b)-c.i) < n {
		return "", errShort
	}
	s := string(c.b[c.i : c.i+int(n)])
	c.i += int(n)
	return s, nil
}

// Feed appends p to the decoder's input and decodes every unit the buffered
// bytes complete, returning the number of newly completed records. A nil
// error with a short count just means the stream is mid-unit; a non-nil
// error is fatal and sticky (the input violates the format).
func (d *StreamDecoder) Feed(p []byte) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	d.buf = append(d.buf, p...)
	before := len(d.t.Recs)
	for d.phase != phaseDone {
		c := cursor{b: d.buf, i: d.off}
		err := d.step(&c)
		if err == errShort {
			break
		}
		if err != nil {
			d.err = err
			return len(d.t.Recs) - before, err
		}
		d.consumed += int64(c.i - d.off)
		d.off = c.i
		if d.phase == phaseDone {
			d.t.markDecoded(int(d.consumed))
		}
	}
	// Compact the consumed prefix so the retained tail stays bounded by one
	// partial unit rather than growing with the stream.
	if d.off > 0 && (d.off == len(d.buf) || d.off > 1<<12) {
		d.buf = append(d.buf[:0], d.buf[d.off:]...)
		d.off = 0
	}
	return len(d.t.Recs) - before, nil
}

// step parses one unit at the current phase through c. On success the phase
// and per-phase counters advance; errShort means the unit is incomplete.
func (d *StreamDecoder) step(c *cursor) error {
	switch d.phase {
	case phaseHeader:
		if len(c.b)-c.i < len(magic)+1 {
			return errShort
		}
		if string(c.b[c.i:c.i+4]) != magic {
			return fmt.Errorf("trace: bad magic %q", c.b[c.i:c.i+4])
		}
		c.i += 4
		v, _ := c.byte()
		if v != version {
			return fmt.Errorf("trace: unsupported version %d", v)
		}
		prog, err := c.str()
		if err != nil {
			return err
		}
		d.t.Program = prog
		d.phase = phaseQueues
		d.done = 0
		d.nq = ^uint64(0)
	case phaseQueues:
		if d.nq == ^uint64(0) {
			n, err := c.uvarint()
			if err != nil {
				return err
			}
			d.nq = n
			return nil
		}
		if d.done >= d.nq {
			d.phase = phaseStrings
			d.done = 0
			d.nstr = ^uint64(0)
			return nil
		}
		q, err := c.str()
		if err != nil {
			return err
		}
		consumers, err := c.uvarint()
		if err != nil {
			return err
		}
		d.t.QueueConsumers[q] = int(consumers)
		d.done++
	case phaseStrings:
		if d.nstr == ^uint64(0) {
			n, err := c.uvarint()
			if err != nil {
				return err
			}
			if n > 1<<24 {
				return fmt.Errorf("trace: unreasonable string table size %d", n)
			}
			d.nstr = n
			// Same capped preallocation as Decode: header counts are
			// attacker-controlled, so growth happens against real input.
			d.table = make([]string, 0, min(n, 1<<12))
			return nil
		}
		if d.done >= d.nstr {
			d.phase = phaseCount
			return nil
		}
		s, err := c.str()
		if err != nil {
			return err
		}
		d.table = append(d.table, s)
		d.done++
	case phaseCount:
		n, err := c.uvarint()
		if err != nil {
			return err
		}
		if n > 1<<28 {
			return fmt.Errorf("trace: unreasonable record count %d", n)
		}
		d.nrec = n
		d.done = 0
		d.t.Recs = make([]Rec, 0, min(n, 1<<16))
		d.phase = phaseRecords
	case phaseRecords:
		if d.done >= d.nrec {
			d.phase = phaseDone
			return nil
		}
		r, err := d.record(c)
		if err != nil {
			return err
		}
		d.t.Recs = append(d.t.Recs, r)
		d.done++
		if d.done >= d.nrec {
			d.phase = phaseDone
		}
	}
	return nil
}

// record parses one record through c, mirroring Decode's field order,
// validation and stack interning.
func (d *StreamDecoder) record(c *cursor) (Rec, error) {
	var r Rec
	kind, err := c.byte()
	if err != nil {
		return r, err
	}
	r.Kind = Kind(kind)
	ck, err := c.byte()
	if err != nil {
		return r, err
	}
	r.CtxKind = CtxKind(ck)
	if r.Seq, err = c.uvarint(); err != nil {
		return r, err
	}
	if r.Node, err = d.lookup(c); err != nil {
		return r, err
	}
	v, err := c.uvarint()
	if err != nil {
		return r, err
	}
	r.Thread = int32(uint32(v))
	if v, err = c.uvarint(); err != nil {
		return r, err
	}
	r.Ctx = int32(uint32(v))
	if r.Obj, err = d.lookup(c); err != nil {
		return r, err
	}
	if r.Op, err = c.uvarint(); err != nil {
		return r, err
	}
	if r.WriterSeq, err = c.uvarint(); err != nil {
		return r, err
	}
	if v, err = c.uvarint(); err != nil {
		return r, err
	}
	r.StaticID = int32(uint32(v)) - 1
	ns, err := c.uvarint()
	if err != nil {
		return r, err
	}
	if ns > 1<<16 {
		return r, fmt.Errorf("trace: unreasonable stack depth %d", ns)
	}
	if ns > 0 {
		d.scratch = d.scratch[:0]
		d.key = d.key[:0]
		for j := uint64(0); j < ns; j++ {
			fv, err := c.uvarint()
			if err != nil {
				return r, err
			}
			f := int32(uint32(fv))
			d.scratch = append(d.scratch, f)
			d.key = append(d.key, byte(f), byte(f>>8), byte(f>>16), byte(f>>24))
		}
		st, ok := d.stacks[string(d.key)]
		if !ok {
			st = append([]int32(nil), d.scratch...)
			d.stacks[string(d.key)] = st
		}
		r.Stack = st
	}
	if r.Queue, err = d.lookup(c); err != nil {
		return r, err
	}
	return r, nil
}

// lookup reads a string-table index and resolves it, with Decode's range
// check.
func (d *StreamDecoder) lookup(c *cursor) (string, error) {
	i, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if i >= uint64(len(d.table)) {
		return "", fmt.Errorf("trace: string index %d out of range", i)
	}
	return d.table[i], nil
}

// Trace returns the trace decoded so far. Header fields (Program,
// QueueConsumers) are complete once HeaderDone reports true; Recs grows as
// records complete. The slice is live — callers must not retain it across
// Feed calls that may append.
func (d *StreamDecoder) Trace() *Trace { return d.t }

// Records returns the number of fully decoded records.
func (d *StreamDecoder) Records() int { return len(d.t.Recs) }

// Expected returns the declared record count; ok is false until the header
// (through the count field) has been decoded.
func (d *StreamDecoder) Expected() (n uint64, ok bool) {
	if d.phase < phaseRecords {
		return 0, false
	}
	return d.nrec, true
}

// HeaderDone reports whether the header — program, queues, string table and
// record count — has been fully decoded.
func (d *StreamDecoder) HeaderDone() bool { return d.phase >= phaseRecords }

// Done reports whether every declared record has been decoded.
func (d *StreamDecoder) Done() bool { return d.phase == phaseDone }

// Consumed returns the number of input bytes consumed so far (excluding the
// retained partial-unit tail).
func (d *StreamDecoder) Consumed() int64 { return d.consumed }

// BufferedBytes returns the retained unconsumed tail length — the decoder's
// only input-proportional state besides the trace itself.
func (d *StreamDecoder) BufferedBytes() int { return len(d.buf) - d.off }

// Finish validates completion and returns the decoded trace: an error means
// the stream ended mid-header or before the declared record count.
func (d *StreamDecoder) Finish() (*Trace, error) {
	if d.err != nil {
		return nil, d.err
	}
	if !d.Done() {
		if !d.HeaderDone() {
			return nil, fmt.Errorf("trace: truncated stream: header incomplete")
		}
		return nil, fmt.Errorf("trace: truncated stream: %d of %d records", len(d.t.Recs), d.nrec)
	}
	return d.t, nil
}
