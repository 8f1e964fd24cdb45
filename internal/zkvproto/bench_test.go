package zkvproto

import (
	"bufio"
	"bytes"
	"testing"
)

// codecLoop pushes one GET request and its reply through in-memory buffers:
// encode both, then decode both, the way a pipelined server and client each
// handle one op. Every buffer is reused, so a round trip allocates nothing.
type codecLoop struct {
	buf       bytes.Buffer
	rd        bytes.Reader
	bw        *bufio.Writer
	br        *bufio.Reader
	req, rreq Request
	resp, rrs Response
}

func newCodecLoop(valLen int) *codecLoop {
	c := &codecLoop{
		req:  Request{Op: OpGet, Key: []byte("key:0000000000042")},
		resp: Response{Status: StatusOK, Val: bytes.Repeat([]byte{'v'}, valLen)},
	}
	c.bw = bufio.NewWriterSize(&c.buf, 64<<10)
	c.br = bufio.NewReaderSize(&c.rd, 64<<10)
	return c
}

func (c *codecLoop) roundTrip() error {
	c.buf.Reset()
	if err := c.req.WriteTo(c.bw); err != nil {
		return err
	}
	if err := c.resp.WriteTo(c.bw); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	c.rd.Reset(c.buf.Bytes())
	c.br.Reset(&c.rd)
	if err := c.rreq.ReadFrom(c.br); err != nil {
		return err
	}
	return c.rrs.ReadFrom(c.br)
}

// TestCodecDoesNotAllocate gates the framing hot path: request and response
// encode and decode allocate nothing once buffers are warm.
func TestCodecDoesNotAllocate(t *testing.T) {
	c := newCodecLoop(128)
	if err := c.roundTrip(); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(1000, func() {
		if e := c.roundTrip(); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("codec round trip allocates %.2f objects, want 0", allocs)
	}
	if !bytes.Equal(c.rreq.Key, c.req.Key) || !bytes.Equal(c.rrs.Val, c.resp.Val) {
		t.Fatalf("round trip changed the frames: key %q, %d-byte value", c.rreq.Key, len(c.rrs.Val))
	}
}

// BenchmarkProtoRoundTrip is rung 2 of the serving ladder: one GET request
// plus a 128 B reply, encoded and decoded.
func BenchmarkProtoRoundTrip(b *testing.B) {
	c := newCodecLoop(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.roundTrip(); err != nil {
			b.Fatal(err)
		}
	}
}
