package zkvproto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

func roundTripRequest(t *testing.T, op byte, key, val []byte) Request {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	out := Request{Op: op, Key: key, Val: val}
	if err := out.WriteTo(bw); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var in Request
	if err := in.ReadFrom(bufio.NewReader(&buf)); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []struct {
		op       byte
		key, val string
	}{
		{OpGet, "k", ""},
		{OpSet, "key", "value"},
		{OpSet, "key", ""},
		{OpDel, "gone", ""},
		{OpStats, "", ""},
		{OpPing, "", ""},
	}
	for _, c := range cases {
		got := roundTripRequest(t, c.op, []byte(c.key), []byte(c.val))
		if got.Op != c.op || string(got.Key) != c.key || string(got.Val) != c.val {
			t.Errorf("round trip op %d: got op=%d key=%q val=%q", c.op, got.Op, got.Key, got.Val)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, c := range []struct {
		status byte
		val    string
	}{
		{StatusOK, "payload"},
		{StatusOK, ""},
		{StatusNotFound, ""},
		{StatusErr, "bad things"},
	} {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		out := Response{Status: c.status, Val: []byte(c.val)}
		if err := out.WriteTo(bw); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		var in Response
		if err := in.ReadFrom(bufio.NewReader(&buf)); err != nil {
			t.Fatal(err)
		}
		if in.Status != c.status || string(in.Val) != c.val {
			t.Errorf("status %d: got status=%d val=%q", c.status, in.Status, in.Val)
		}
	}
}

func TestPipelinedFrames(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	for i := 0; i < 100; i++ {
		req := Request{Op: OpSet, Key: []byte{byte(i), 'k'}, Val: bytes.Repeat([]byte{byte(i)}, i)}
		if err := req.WriteTo(bw); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&buf)
	var req Request
	for i := 0; i < 100; i++ {
		if err := req.ReadFrom(br); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if req.Key[0] != byte(i) || len(req.Val) != i {
			t.Fatalf("frame %d decoded wrong: key=%v valLen=%d", i, req.Key, len(req.Val))
		}
	}
	if err := req.ReadFrom(br); err != io.EOF {
		t.Fatalf("want clean EOF after last frame, got %v", err)
	}
}

func TestRejectsMalformedFrames(t *testing.T) {
	cases := []struct {
		name  string
		raw   []byte
		under error
	}{
		{"bad opcode", []byte{99, 0, 0, 0, 0, 0, 0}, ErrBadOp},
		{"zero opcode", []byte{0, 0, 0, 0, 0, 0, 0}, ErrBadOp},
		{"get with value", []byte{OpGet, 0, 1, 0, 0, 0, 1, 'k', 'v'}, ErrBadFrame},
		{"get empty key", []byte{OpGet, 0, 0, 0, 0, 0, 0}, ErrBadFrame},
		{"set empty key", []byte{OpSet, 0, 0, 0, 0, 0, 1, 'v'}, ErrBadFrame},
		{"ping with key", []byte{OpPing, 0, 1, 0, 0, 0, 0, 'k'}, ErrBadFrame},
		{"oversized value", []byte{OpSet, 0, 1, 0xff, 0xff, 0xff, 0xff, 'k'}, ErrFrameTooLarge},
		{"truncated header", []byte{OpGet, 0}, io.ErrUnexpectedEOF},
		{"truncated body", []byte{OpGet, 0, 5, 0, 0, 0, 0, 'k'}, io.ErrUnexpectedEOF},
	}
	for _, c := range cases {
		var req Request
		err := req.ReadFrom(bufio.NewReader(bytes.NewReader(c.raw)))
		if !errors.Is(err, c.under) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.under)
		}
	}
}

func TestWriteRejectsOversize(t *testing.T) {
	bw := bufio.NewWriter(io.Discard)
	req := Request{Op: OpSet, Key: []byte(strings.Repeat("k", MaxKeyLen+1)), Val: nil}
	if err := req.WriteTo(bw); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized key: got %v", err)
	}
	req = Request{Op: 42, Key: []byte("k")}
	if err := req.WriteTo(bw); !errors.Is(err, ErrBadOp) {
		t.Fatalf("bad op: got %v", err)
	}
}

func TestResponseRejectsBadStatus(t *testing.T) {
	raw := []byte{7, 0, 0, 0, 0}
	var resp Response
	if err := resp.ReadFrom(bufio.NewReader(bytes.NewReader(raw))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad status: got %v", err)
	}
}

func TestBufferReuseDoesNotAlias(t *testing.T) {
	// Two sequential frames through one Request must not leak bytes of
	// the first into the second.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	a := Request{Op: OpSet, Key: []byte("long-key-one"), Val: []byte("long-value-one")}
	b := Request{Op: OpSet, Key: []byte("k2"), Val: []byte("v2")}
	if err := a.WriteTo(bw); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteTo(bw); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	br := bufio.NewReader(&buf)
	var in Request
	if err := in.ReadFrom(br); err != nil {
		t.Fatal(err)
	}
	if err := in.ReadFrom(br); err != nil {
		t.Fatal(err)
	}
	if string(in.Key) != "k2" || string(in.Val) != "v2" {
		t.Fatalf("buffer reuse corrupted frame: key=%q val=%q", in.Key, in.Val)
	}
}

// frameSizes are the payload sizes of the frames in the small-buffer test:
// around the 16-byte bufio minimum, so headers land at every alignment.
var frameSizes = []int{0, 1, 5, 9, 15, 16, 17, 31, 100}

// frameOf is the i'th frame of each kind in the small-buffer test: SETs
// with an i+1 byte key for even sizes, GETs with a size-byte key for odd.
func frameOf(i int) (Request, Response) {
	n := frameSizes[i]
	req := Request{Op: OpSet, Key: bytes.Repeat([]byte{'k'}, 1+i), Val: bytes.Repeat([]byte{byte(i)}, n)}
	if n%2 == 1 {
		req = Request{Op: OpGet, Key: bytes.Repeat([]byte{'g'}, n), Val: []byte{}}
	}
	return req, Response{Status: byte(i % 4), Val: bytes.Repeat([]byte{'v'}, n)}
}

// TestTruncatedFrames cuts one frame of each kind at every byte offset: a
// stream that ends before the frame's first byte is a clean io.EOF, and one
// that ends anywhere inside the frame is io.ErrUnexpectedEOF.
func TestTruncatedFrames(t *testing.T) {
	var rb, sb bytes.Buffer
	rw, sw := bufio.NewWriter(&rb), bufio.NewWriter(&sb)
	(&Request{Op: OpSet, Key: []byte("key"), Val: []byte("value")}).WriteTo(rw)
	(&Response{Status: StatusOK, Val: []byte("payload")}).WriteTo(sw)
	rw.Flush()
	sw.Flush()
	for _, d := range []struct {
		kind   string
		frame  []byte
		decode func(*bufio.Reader) error
	}{
		{"request", rb.Bytes(), func(br *bufio.Reader) error { var r Request; return r.ReadFrom(br) }},
		{"response", sb.Bytes(), func(br *bufio.Reader) error { var r Response; return r.ReadFrom(br) }},
	} {
		for off := 0; off <= len(d.frame); off++ {
			err := d.decode(bufio.NewReader(bytes.NewReader(d.frame[:off])))
			var want error
			switch {
			case off == 0:
				want = io.EOF
			case off < len(d.frame):
				want = io.ErrUnexpectedEOF
			}
			if err != want {
				t.Errorf("%s cut at %d of %d bytes: got %v, want %v", d.kind, off, len(d.frame), err, want)
			}
		}
	}
}

// TestDecodeThroughSmallBuffer decodes frame streams through the smallest
// bufio.Reader there is, fed whole and one byte at a time, so header peeks
// straddle buffer refills.
func TestDecodeThroughSmallBuffer(t *testing.T) {
	var rb, sb bytes.Buffer
	rw, sw := bufio.NewWriter(&rb), bufio.NewWriter(&sb)
	for i := range frameSizes {
		req, resp := frameOf(i)
		if err := req.WriteTo(rw); err != nil {
			t.Fatal(err)
		}
		if err := resp.WriteTo(sw); err != nil {
			t.Fatal(err)
		}
	}
	rw.Flush()
	sw.Flush()
	for _, wrap := range []func(io.Reader) io.Reader{
		func(r io.Reader) io.Reader { return r },
		iotest.OneByteReader,
	} {
		reqs := bufio.NewReaderSize(wrap(bytes.NewReader(rb.Bytes())), 16)
		resps := bufio.NewReaderSize(wrap(bytes.NewReader(sb.Bytes())), 16)
		var req Request
		var resp Response
		for i := range frameSizes {
			wantReq, wantResp := frameOf(i)
			if err := req.ReadFrom(reqs); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if req.Op != wantReq.Op || !bytes.Equal(req.Key, wantReq.Key) || !bytes.Equal(req.Val, wantReq.Val) {
				t.Fatalf("request %d decoded wrong: op %d key %q val %q", i, req.Op, req.Key, req.Val)
			}
			if err := resp.ReadFrom(resps); err != nil {
				t.Fatalf("response %d: %v", i, err)
			}
			if resp.Status != wantResp.Status || !bytes.Equal(resp.Val, wantResp.Val) {
				t.Fatalf("response %d decoded wrong: status %d val %q", i, resp.Status, resp.Val)
			}
		}
		if err := req.ReadFrom(reqs); err != io.EOF {
			t.Fatalf("after the last request: got %v, want io.EOF", err)
		}
		if err := resp.ReadFrom(resps); err != io.EOF {
			t.Fatalf("after the last response: got %v, want io.EOF", err)
		}
	}
}
