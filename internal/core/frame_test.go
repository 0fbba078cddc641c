package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"dcgn/internal/bufpool"
)

// Tests for the frame codec (frame.go): on-wire lengths, round trips and
// the rejection of hostile bytes, over every layout a lane can have.

// frameLane is one cell of {two-sided, one-sided} x {reliable} x {flows}.
type frameLane struct {
	oneSided, reliable, flows bool
}

func (fl frameLane) layout() layout { return laneLayout(fl.oneSided, fl.reliable, fl.flows) }

// frameLanes enumerates all eight cells; bit i of the index is oneSided,
// reliable, flows — the encoding FuzzUnpackFrame's first argument uses.
func frameLanes() []frameLane {
	var out []frameLane
	for i := 0; i < 8; i++ {
		out = append(out, frameLane{oneSided: i&1 != 0, reliable: i&2 != 0, flows: i&4 != 0})
	}
	return out
}

// kinds returns every frame kind valid on the lane.
func (fl frameLane) kinds() []frameKind {
	var out []frameKind
	for k := kindData; k <= kindFetchRep; k++ {
		if fl.layout().validKind(k) {
			out = append(out, k)
		}
	}
	return out
}

// dataKind is the lane's plain payload-carrying kind.
func (fl frameLane) dataKind() frameKind {
	if fl.oneSided {
		return kindPut
	}
	return kindData
}

// sampleFrame is a frame of kind k with every field the layout carries set
// to a distinct value, so a field that lands at the wrong offset shows.
func sampleFrame(fl frameLane, k frameKind, payload []byte) frame {
	f := frame{kind: k, src: 7, dst: 12, payload: payload}
	l := fl.layout()
	if l&extSeq != 0 {
		f.seq, f.flags = 99, flagTrunc
	}
	if l&extOS != 0 {
		f.os = osAddr{win: 3, token: 41, offset: 1 << 33, postedNs: -5, aux: 4096}
	}
	if l.carriesFlow(k) {
		f.traceID, f.spanID = 0xabcd, 0x1234
	}
	if k == kindAck {
		f.dst, f.payload = 0, nil
	}
	return f
}

// TestFrameLengths pins every frame's on-wire header length to the byte
// counts the three hand-packed codecs produced before frame.go: virtual
// time and NetBytes are functions of these.
func TestFrameLengths(t *testing.T) {
	const two, one = false, true
	rows := []struct {
		oneSided, reliable, flows bool
		kind                      frameKind
		want                      int
	}{
		{two, false, false, kindData, 24},
		{two, false, true, kindData, 40},
		{two, true, false, kindData, 40},
		{two, true, true, kindData, 56},
		{two, true, false, kindAck, 40},
		{two, true, true, kindAck, 40}, // acks carry no flow context
		{one, false, false, kindPut, 72},
		{one, false, true, kindPut, 88},
		{one, true, false, kindPut, 72},
		{one, true, true, kindPut, 88},
		{one, true, false, kindAck, 72},
		{one, true, true, kindAck, 88},
		{one, false, false, kindGetReq, 72},
		{one, false, true, kindGetRep, 88},
		{one, true, false, kindAccum, 72},
		{one, true, true, kindFetchReq, 88},
		{one, false, false, kindFetchRep, 72},
	}
	pool := bufpool.New()
	// A 1 MiB payload's frame takes bufpool's header-room class, 128 bytes
	// more than the payload, whatever its header. Acks carry no payload.
	big := make([]byte, 1<<20)
	for _, r := range rows {
		fl := frameLane{r.oneSided, r.reliable, r.flows}
		f := sampleFrame(fl, r.kind, nil)
		if got := len(packFrame(pool, fl.layout(), &f)); got != r.want {
			t.Errorf("%+v kind %d: %d header bytes on the wire, want %d", fl, r.kind, got, r.want)
		}
		if r.kind == kindAck {
			continue
		}
		f = sampleFrame(fl, r.kind, big)
		msg := packFrame(pool, fl.layout(), &f)
		if cap(msg) != len(big)+128 {
			t.Errorf("%+v kind %d: a 1 MiB payload's frame takes %d bytes", fl, r.kind, cap(msg))
		}
		pool.Put(msg)
	}
}

// TestFrameRoundtrip packs and unpacks one frame per (lane, kind).
func TestFrameRoundtrip(t *testing.T) {
	pool := bufpool.New()
	payload := pattern(300, 5)
	for _, fl := range frameLanes() {
		for _, k := range fl.kinds() {
			want := sampleFrame(fl, k, payload)
			msg := packFrame(pool, fl.layout(), &want)
			got, err := unpackFrame(fl.layout(), msg)
			if err != nil {
				t.Errorf("%+v kind %d: %v", fl, k, err)
				continue
			}
			if !bytes.Equal(got.payload, want.payload) {
				t.Errorf("%+v kind %d: payload changed", fl, k)
			}
			got.payload, got.backing, want.payload = nil, nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%+v kind %d:\n got %+v\nwant %+v", fl, k, got, want)
			}
		}
	}
}

// Property: arbitrary rank pairs, sequence numbers, flow context and
// payloads survive the wire on every lane.
func TestFrameRoundtripProperty(t *testing.T) {
	pool := bufpool.New()
	lanes := frameLanes()
	f := func(lane uint8, src, dst int32, seq, traceID, spanID uint64, payload []byte) bool {
		fl := lanes[lane%8]
		l := fl.layout()
		in := frame{kind: fl.dataKind(), src: int(src), dst: int(dst), payload: payload}
		if l&extSeq != 0 {
			in.seq = seq
		}
		if l&extFlow != 0 {
			in.traceID, in.spanID = traceID, spanID
		}
		out, err := unpackFrame(l, packFrame(pool, l, &in))
		return err == nil && out.src == in.src && out.dst == in.dst && out.seq == in.seq &&
			out.traceID == in.traceID && out.spanID == in.spanID && bytes.Equal(out.payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// hostileFrames returns, per lane, frames unpackFrame must refuse. The
// length and one-sided rows made the three pre-frame.go unpackers index out
// of range (they checked only hdr+n > len(msg), which a length >= 2^63 or
// one that overflows the sum slips past) or handed the one-sided engine a
// negative offset or byte count.
func hostileFrames(fl frameLane) map[string][]byte {
	pool := bufpool.New()
	l := fl.layout()
	k := fl.dataKind()
	good := func() []byte {
		f := sampleFrame(fl, k, []byte("hello"))
		return packFrame(pool, l, &f)
	}
	patch := func(off int, v uint64) []byte {
		msg := good()
		binary.LittleEndian.PutUint64(msg[off:], v)
		return msg
	}
	hdr := l.hdrLen(k)
	out := map[string][]byte{
		"empty":              {},
		"three bytes":        {1, 2, 3},
		"header cut short":   good()[:hdr-4],
		"payload cut short":  good()[:hdr+3],
		"length 2^63":        patch(16, 1<<63),
		"length -1":          patch(16, math.MaxUint64),
		"length overflowing": patch(16, math.MaxInt64-uint64(hdr)+1),
		"length one over":    patch(16, 6),
	}
	if l&extSeq != 0 {
		msg := good()
		binary.LittleEndian.PutUint32(msg[baseLen+8:], 99)
		out["unknown kind"] = msg
		msg = good()
		binary.LittleEndian.PutUint32(msg[baseLen+8:], 0)
		out["kind zero"] = msg
		// A kind that exists, on the lane that does not carry it.
		other := kindPut
		if fl.oneSided {
			other = kindData
		}
		msg = good()
		binary.LittleEndian.PutUint32(msg[baseLen+8:], uint32(other))
		out["other lane's kind"] = msg
	}
	if l&extOS != 0 {
		osOff := baseLen + seqExtLen
		out["negative offset"] = patch(osOff+8, math.MaxUint64)
		out["aux over MaxInt"] = patch(osOff+24, 1<<63)
	}
	return out
}

func TestUnpackFrameRejects(t *testing.T) {
	for _, fl := range frameLanes() {
		for name, msg := range hostileFrames(fl) {
			if _, err := unpackFrame(fl.layout(), msg); err == nil {
				t.Errorf("%+v: %s accepted", fl, name)
			}
		}
	}
	// A two-sided ack stays 40 B under flows: a data frame cut to that
	// length must not parse as one.
	fl := frameLane{reliable: true, flows: true}
	f := sampleFrame(fl, kindData, nil)
	if _, err := unpackFrame(fl.layout(), packFrame(bufpool.New(), fl.layout(), &f)[:40]); err == nil {
		t.Error("data frame without its flow context accepted")
	}
}

// TestFramePatchers pins the in-place patchers a persistent put uses
// against the packer: patching must equal packing the new value.
func TestFramePatchers(t *testing.T) {
	pool := bufpool.New()
	for _, flows := range []bool{false, true} {
		fl := frameLane{oneSided: true, reliable: true, flows: flows}
		f := sampleFrame(fl, kindPut, []byte("hello"))
		msg := packFrame(pool, fl.layout(), &f)
		f.seq, f.os.postedNs = 1<<40, 1<<41
		setSeq(msg, f.seq)
		setPostedAt(msg, f.os.postedNs)
		if want := packFrame(pool, fl.layout(), &f); !bytes.Equal(msg, want) {
			t.Errorf("flows=%t: patched frame differs from a packed one", flows)
		}
	}
}

// FuzzUnpackFrame feeds arbitrary bytes to the decoder on every lane: it
// must never panic, and whatever it accepts must pack back to the bytes it
// came from. The committed corpus (testdata/fuzz/FuzzUnpackFrame) holds one
// packed frame per (lane, kind) and the hostile frames above.
func FuzzUnpackFrame(f *testing.F) {
	pool := bufpool.New()
	lanes := frameLanes()
	f.Fuzz(func(t *testing.T, lane uint8, msg []byte) {
		l := lanes[lane%8].layout()
		fr, err := unpackFrame(l, msg)
		if err != nil {
			return
		}
		n := l.hdrLen(fr.kind) + len(fr.payload)
		if n > len(msg) {
			t.Fatalf("accepted a %d-byte frame out of %d bytes", n, len(msg))
		}
		if again := packFrame(pool, l, &fr); !bytes.Equal(again, msg[:n]) {
			t.Fatalf("frame does not pack back to its bytes:\n in %x\nout %x", msg[:n], again)
		}
	})
}
