// Package zkvproto is the binary wire protocol zcached speaks.
//
// The framing is fixed-header, length-prefixed, and pipelining-friendly: a
// client may write any number of requests before reading replies, and the
// server answers strictly in order.
//
//	request:  op(1) | keyLen uint16 BE | valLen uint32 BE | key | val
//	response: status(1) | valLen uint32 BE | val
//
// GET and DEL carry valLen 0. STATS and PING carry keyLen and valLen 0; a
// STATS response returns the metrics text as its value. MIGRATE and FORGET —
// the cluster resharding verbs — carry fixed-size cursor blobs as their keys
// and answer with a migrate page / dropped count (see migrate.go). Every
// request gets exactly one response.
package zkvproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Request opcodes.
const (
	OpGet   = 1
	OpSet   = 2
	OpDel   = 3
	OpStats = 4
	OpPing  = 5
	// OpMigrate streams one page of resident entries whose ring points fall
	// in a requested arc (see migrate.go). The key carries a MigrateReq
	// cursor blob; the response value is a migrate page. Idempotent: a
	// migrate page is a read.
	OpMigrate = 6
	// OpForget drops every resident entry whose ring point falls in the
	// requested arc — the source side's final step of a resharding handoff.
	// The key carries a ForgetReq blob; the response value is the dropped
	// count. Idempotent: forgetting an already-forgotten range drops zero.
	OpForget = 7
)

// Response status codes.
const (
	StatusOK       = 0 // success; GET carries the value
	StatusNotFound = 1 // GET/DEL missed
	StatusErr      = 2 // malformed or rejected request; value is the message
	// StatusBusy is the overload-shed response: the server did NOT execute
	// the request (connection pool or per-connection pipeline depth
	// exhausted), so any operation — including SET/DEL — is safe to retry
	// after backing off. A server may also send one unsolicited StatusBusy
	// frame and close when it sheds a whole connection at accept time.
	StatusBusy = 3
)

const (
	// RequestHeaderLen and ResponseHeaderLen are the fixed header sizes
	// that precede every request and response frame's payload.
	RequestHeaderLen  = 1 + 2 + 4
	ResponseHeaderLen = 1 + 4

	// MaxKeyLen is the framing limit (keyLen is uint16).
	MaxKeyLen = 1<<16 - 1
	// MaxValLen bounds a frame's value so a corrupt length prefix cannot
	// make a reader buffer gigabytes. Servers may enforce lower limits.
	MaxValLen = 16 << 20
)

var (
	// ErrBadOp reports an opcode outside the defined set.
	ErrBadOp = errors.New("zkvproto: bad opcode")
	// ErrFrameTooLarge reports a length prefix above the protocol limits.
	ErrFrameTooLarge = errors.New("zkvproto: frame too large")
	// ErrBadFrame reports a structurally invalid frame (e.g. a GET
	// carrying a value, or a zero-length key on an op that needs one).
	ErrBadFrame = errors.New("zkvproto: bad frame")
)

// Request is one decoded client frame. Key and Val alias the Request's own
// reusable buffers after ReadFrom; they are valid until the next ReadFrom.
type Request struct {
	Op  byte
	Key []byte
	Val []byte
}

// Response is one decoded server frame. Val aliases the Response's reusable
// buffer after ReadFrom; it is valid until the next ReadFrom.
type Response struct {
	Status byte
	Val    []byte
}

func validOp(op byte) bool { return op >= OpGet && op <= OpForget }

// RequestLen is the whole length of the request frame whose header is hdr
// (at least RequestHeaderLen bytes). The header is not validated.
func RequestLen(hdr []byte) int {
	return RequestHeaderLen + int(binary.BigEndian.Uint16(hdr[1:3])) + int(binary.BigEndian.Uint32(hdr[3:7]))
}

// ReadFrom decodes one request frame, reusing r's buffers. io.EOF is
// returned unwrapped only when the stream ends cleanly between frames.
func (r *Request) ReadFrom(br *bufio.Reader) error {
	hdr, err := readHeader(br, RequestHeaderLen)
	if err != nil {
		return err
	}
	op := hdr[0]
	keyLen := int(binary.BigEndian.Uint16(hdr[1:3]))
	valLen := int(binary.BigEndian.Uint32(hdr[3:7]))
	if !validOp(op) {
		return fmt.Errorf("%w: %d", ErrBadOp, op)
	}
	if valLen > MaxValLen {
		return fmt.Errorf("%w: value %d bytes", ErrFrameTooLarge, valLen)
	}
	switch op {
	case OpGet, OpDel:
		if keyLen == 0 || valLen != 0 {
			return fmt.Errorf("%w: op %d with keyLen=%d valLen=%d", ErrBadFrame, op, keyLen, valLen)
		}
	case OpSet:
		if keyLen == 0 {
			return fmt.Errorf("%w: SET with empty key", ErrBadFrame)
		}
	case OpStats, OpPing:
		if keyLen != 0 || valLen != 0 {
			return fmt.Errorf("%w: op %d with payload", ErrBadFrame, op)
		}
	case OpMigrate:
		if keyLen != MigrateReqLen || valLen != 0 {
			return fmt.Errorf("%w: MIGRATE with keyLen=%d valLen=%d", ErrBadFrame, keyLen, valLen)
		}
	case OpForget:
		if keyLen != ForgetReqLen || valLen != 0 {
			return fmt.Errorf("%w: FORGET with keyLen=%d valLen=%d", ErrBadFrame, keyLen, valLen)
		}
	}
	r.Op = op
	r.Key = readInto(&r.Key, keyLen)
	r.Val = readInto(&r.Val, valLen)
	if _, err := io.ReadFull(br, r.Key); err != nil {
		return unexpectedEOF(err)
	}
	if _, err := io.ReadFull(br, r.Val); err != nil {
		return unexpectedEOF(err)
	}
	return nil
}

// WriteTo encodes the request onto bw. The caller flushes.
func (r *Request) WriteTo(bw *bufio.Writer) error {
	if !validOp(r.Op) {
		return fmt.Errorf("%w: %d", ErrBadOp, r.Op)
	}
	if len(r.Key) > MaxKeyLen {
		return fmt.Errorf("%w: key %d bytes", ErrFrameTooLarge, len(r.Key))
	}
	if len(r.Val) > MaxValLen {
		return fmt.Errorf("%w: value %d bytes", ErrFrameTooLarge, len(r.Val))
	}
	hdr, err := headerBuf(bw, RequestHeaderLen)
	if err != nil {
		return err
	}
	hdr = append(hdr, r.Op)
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(r.Key)))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(r.Val)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if _, err := bw.Write(r.Key); err != nil {
		return err
	}
	_, err = bw.Write(r.Val)
	return err
}

// ReadFrom decodes one response frame, reusing r's buffer.
func (r *Response) ReadFrom(br *bufio.Reader) error {
	hdr, err := readHeader(br, ResponseHeaderLen)
	if err != nil {
		return err
	}
	status := hdr[0]
	if status > StatusBusy {
		return fmt.Errorf("%w: status %d", ErrBadFrame, status)
	}
	valLen := int(binary.BigEndian.Uint32(hdr[1:5]))
	if valLen > MaxValLen {
		return fmt.Errorf("%w: value %d bytes", ErrFrameTooLarge, valLen)
	}
	r.Status = status
	r.Val = readInto(&r.Val, valLen)
	if _, err := io.ReadFull(br, r.Val); err != nil {
		return unexpectedEOF(err)
	}
	return nil
}

// WriteTo encodes the response onto bw. The caller flushes.
func (r *Response) WriteTo(bw *bufio.Writer) error {
	if len(r.Val) > MaxValLen {
		return fmt.Errorf("%w: value %d bytes", ErrFrameTooLarge, len(r.Val))
	}
	hdr, err := headerBuf(bw, ResponseHeaderLen)
	if err != nil {
		return err
	}
	hdr = append(hdr, r.Status)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(r.Val)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	_, err = bw.Write(r.Val)
	return err
}

// readHeader consumes the next n header bytes and returns them in place in
// br's buffer, valid until the next read from br. Taking the header from the
// buffer, instead of copying it into a local array, keeps decoding
// allocation-free. io.EOF passes through only when no byte of the frame
// arrived.
func readHeader(br *bufio.Reader, n int) ([]byte, error) {
	hdr, err := br.Peek(n)
	if err != nil {
		if len(hdr) > 0 {
			return nil, unexpectedEOF(err)
		}
		return nil, err
	}
	br.Discard(n) // cannot fail: Peek just buffered n bytes
	return hdr, nil
}

// headerBuf returns bw's free space to append an n-byte header into,
// flushing first when less than n bytes are free. Writing the header from
// the buffer's own space keeps encoding allocation-free; the bytes reaching
// the writer are the same either way.
func headerBuf(bw *bufio.Writer, n int) ([]byte, error) {
	if bw.Available() < n {
		if err := bw.Flush(); err != nil {
			return nil, err
		}
	}
	return bw.AvailableBuffer(), nil
}

// readInto resizes *buf to n bytes, reusing capacity when it can.
func readInto(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// unexpectedEOF maps a mid-frame EOF to io.ErrUnexpectedEOF so callers can
// tell a truncated frame from a clean close.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
