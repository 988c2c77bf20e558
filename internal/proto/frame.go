package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Stream framing: how §5.3.1 submission entries travel over a byte stream
// (TCP or a unix socket) instead of a PCIe doorbell. Each frame is one
// length-prefixed record; within a connection, frames are independent
// requests matched to responses by a host-chosen sequence number, so a host
// may pipeline many commands and a device may complete them out of order
// (each open view is its own command stream, exactly like the in-process
// API).
//
// Request frame layout (all integers little-endian):
//
//	uint32  length of everything after this field
//	uint64  sequence number (echoed verbatim in the response)
//	64 B    submission entry (Command.Marshal)
//	uint32  payload length | payload bytes (the 4 KB coordinate/space page)
//	uint32  data length    | data bytes    (the nds_write payload)
//
// Response frame layout:
//
//	uint32  length of everything after this field
//	uint64  sequence number
//	uint8   completion status, 7 B reserved (zero)
//	uint64  completion result 0
//	uint64  completion result 1
//	uint32  data length | data bytes (the nds_read payload)
//
// A reader that sees a length prefix larger than its configured bound must
// drop the connection: the stream is either hostile or desynchronized, and
// there is no way to resynchronize a length-prefixed stream once a frame
// boundary is lost.

// DefaultMaxFrame bounds frame payloads for readers that do not choose
// their own limit: large enough for a 64 MiB partition write, small enough
// that a hostile length prefix cannot make a reader allocate arbitrarily.
const DefaultMaxFrame = 64 << 20

// ErrFrameTooLarge reports a frame whose length prefix exceeds the reader's
// limit. The connection carrying it cannot be resynchronized.
var ErrFrameTooLarge = errors.New("proto: frame exceeds size limit")

// reqFixedLen is the fixed portion of a request frame body: sequence,
// submission entry, and the two section length fields.
const reqFixedLen = 8 + CommandSize + 4 + 4

// respFixedLen is the fixed portion of a response frame body: sequence,
// status word, two result words, and the data length field.
const respFixedLen = 8 + 8 + 8 + 8 + 4

// Request is one framed command: the submission entry plus its out-of-band
// pages (the coordinate/space payload page and the write data).
type Request struct {
	Seq     uint64
	Cmd     [CommandSize]byte
	Payload []byte
	Data    []byte
}

// Response is one framed completion plus the read payload, if any.
type Response struct {
	Seq  uint64
	Cpl  Completion
	Data []byte
}

// WriteRequest frames req onto w: the fixed header, the payload page, the
// data length and the data, as four Write calls, so callers stream through a
// bufio.Writer and flush at send points. The two fixed pieces are encoded in
// w's own spare buffer space when w is a *bufio.Writer (see spare), so
// framing a request allocates nothing there.
func WriteRequest(w io.Writer, req Request) error {
	if len(req.Payload) > DefaultMaxFrame || len(req.Data) > DefaultMaxFrame {
		return ErrFrameTooLarge
	}
	hdr := binary.LittleEndian.AppendUint32(spare(w), uint32(reqFixedLen+len(req.Payload)+len(req.Data)))
	hdr = binary.LittleEndian.AppendUint64(hdr, req.Seq)
	hdr = append(hdr, req.Cmd[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(req.Payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(req.Payload); err != nil {
		return err
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32(spare(w), uint32(len(req.Data)))); err != nil {
		return err
	}
	_, err := w.Write(req.Data)
	return err
}

// spare returns the empty slice a frame's fixed-size pieces are appended to
// before being written. For a *bufio.Writer it is the writer's own unused
// buffer space: bytes appended there and passed to Write are already where
// Write would copy them, and nothing escapes to the heap through the
// io.Writer interface. Any other writer (or a bufio.Writer too full for the
// piece) gets a fresh allocation from append, which is what a local array
// handed to an interface method costs anyway.
func spare(w io.Writer) []byte {
	if bw, ok := w.(*bufio.Writer); ok {
		return bw.AvailableBuffer()
	}
	return nil
}

// ReadRequest parses one request frame from r. maxFrame bounds the length
// prefix (0 selects DefaultMaxFrame). A clean EOF before the first byte
// returns io.EOF; EOF inside a frame returns io.ErrUnexpectedEOF.
func ReadRequest(r io.Reader, maxFrame uint32) (Request, error) {
	req, _, err := ReadRequestInto(r, maxFrame, nil)
	return req, err
}

// ReadRequestInto is ReadRequest with the frame body read into buf, which is
// grown when too small and returned for recycling whatever the outcome. The
// request's Payload and Data alias the returned buffer: it is on lease to
// whoever holds the Request, and may be reused for the next frame only once
// nothing reads the request any more. A server that recycles buffers this
// way relies on the command executor not retaining them (nds.Device.Exec).
// buf's old contents never show through: every byte of the body is
// overwritten by the read, so nothing is zeroed first.
func ReadRequestInto(r io.Reader, maxFrame uint32, buf []byte) (Request, []byte, error) {
	body, buf, err := readFrame(r, maxFrame, buf)
	if err != nil {
		return Request{}, buf, err
	}
	if len(body) < reqFixedLen {
		return Request{}, buf, fmt.Errorf("proto: request frame too short (%d B)", len(body))
	}
	var req Request
	req.Seq = binary.LittleEndian.Uint64(body)
	copy(req.Cmd[:], body[8:])
	pos := 8 + CommandSize
	req.Payload, pos, err = readSection(body, pos, "payload")
	if err != nil {
		return Request{}, buf, err
	}
	req.Data, pos, err = readSection(body, pos, "data")
	if err != nil {
		return Request{}, buf, err
	}
	if pos != len(body) {
		return Request{}, buf, fmt.Errorf("proto: request frame has %d trailing bytes", len(body)-pos)
	}
	return req, buf, nil
}

// ResponseHeaderLen is the encoded size of a response frame before its data
// section: the length prefix plus the fixed body.
const ResponseHeaderLen = 4 + respFixedLen

// PutResponseHeader encodes the header of a response frame carrying dlen
// payload bytes into hdr, which must be at least ResponseHeaderLen bytes.
// Writers that gather a response's payload directly into a frame buffer (the
// server's zero-copy read path) use this instead of WriteResponse; the
// resulting frame — header followed by exactly dlen data bytes — is written
// to the stream verbatim and is indistinguishable from WriteResponse output.
func PutResponseHeader(hdr []byte, seq uint64, cpl Completion, dlen int) {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(respFixedLen+dlen))
	binary.LittleEndian.PutUint64(hdr[4:], seq)
	hdr[12] = byte(cpl.Status)
	clear(hdr[13:20]) // reserved: pooled buffers may hold stale bytes
	binary.LittleEndian.PutUint64(hdr[20:], cpl.Result0)
	binary.LittleEndian.PutUint64(hdr[28:], cpl.Result1)
	binary.LittleEndian.PutUint32(hdr[36:], uint32(dlen))
}

// WriteResponse frames resp onto w, encoding the header the way WriteRequest
// encodes its own.
func WriteResponse(w io.Writer, resp Response) error {
	if len(resp.Data) > DefaultMaxFrame {
		return ErrFrameTooLarge
	}
	hdr := append(spare(w), make([]byte, ResponseHeaderLen)...)
	PutResponseHeader(hdr, resp.Seq, resp.Cpl, len(resp.Data))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(resp.Data)
	return err
}

// ReadResponse parses one response frame from r, with the same EOF and
// maxFrame contract as ReadRequest. The returned Data is the caller's to keep
// and never aliases r's buffer.
//
// When r is a *bufio.Reader and the whole frame fits its buffer, the frame is
// decoded where it lies: the header is parsed in place and Data is the one
// copy made of the payload — into memory that is not zeroed first — instead
// of a zeroed frame body the reader's bytes are then copied over. A larger
// frame (or any other reader) is read straight into an allocated body, which
// for a bufio.Reader already bypasses its buffer.
func ReadResponse(r io.Reader, maxFrame uint32) (Response, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		body, _, err := readFrame(r, maxFrame, nil)
		if err != nil {
			return Response{}, err
		}
		return parseResponse(body, false)
	}
	// The length prefix is checked before anything waits on the frame it
	// announces: a hostile prefix must not make Peek block for bytes that
	// will never be accepted.
	lenb, err := br.Peek(4)
	if err != nil {
		if err == io.EOF && len(lenb) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return Response{}, err
	}
	n, err := frameLen(lenb, maxFrame)
	if err != nil {
		return Response{}, err
	}
	if 4+n > br.Size() {
		br.Discard(4)
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return Response{}, midFrame(err)
		}
		return parseResponse(body, false)
	}
	frame, err := br.Peek(4 + n)
	if err != nil {
		return Response{}, midFrame(err)
	}
	resp, err := parseResponse(frame[4:], true)
	br.Discard(4 + n)
	return resp, err
}

// parseResponse decodes a response frame body. With own set the body is
// borrowed (a bufio.Reader's window) and Data is copied out of it; otherwise
// Data aliases body, which the caller allocated for the purpose.
func parseResponse(body []byte, own bool) (Response, error) {
	if len(body) < respFixedLen {
		return Response{}, fmt.Errorf("proto: response frame too short (%d B)", len(body))
	}
	var resp Response
	resp.Seq = binary.LittleEndian.Uint64(body)
	resp.Cpl = Completion{
		Status:  Status(body[8]),
		Result0: binary.LittleEndian.Uint64(body[16:]),
		Result1: binary.LittleEndian.Uint64(body[24:]),
	}
	data, pos, err := readSection(body, respFixedLen-4, "data")
	if err != nil {
		return Response{}, err
	}
	if pos != len(body) {
		return Response{}, fmt.Errorf("proto: response frame has %d trailing bytes", len(body)-pos)
	}
	if own && data != nil {
		data = append([]byte(nil), data...)
	}
	resp.Data = data
	return resp, nil
}

// frameLen decodes a length prefix and checks it against maxFrame (0 selects
// DefaultMaxFrame).
func frameLen(lenb []byte, maxFrame uint32) (int, error) {
	if maxFrame == 0 {
		maxFrame = DefaultMaxFrame
	}
	n := binary.LittleEndian.Uint32(lenb)
	if n > maxFrame {
		return 0, fmt.Errorf("%w (%d > %d B)", ErrFrameTooLarge, n, maxFrame)
	}
	return int(n), nil
}

// midFrame maps an EOF met after a frame's first byte to what it is there.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readFrame reads a length prefix and the frame body it announces into buf,
// growing it when the body does not fit; it returns the body (a prefix of
// the buffer) and the buffer. The read overwrites exactly the bytes it
// returns, so a recycled buffer needs no clearing.
func readFrame(r io.Reader, maxFrame uint32, buf []byte) (body, grown []byte, err error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, buf, err // io.EOF on a clean frame boundary
	}
	n, err := frameLen(buf[:4], maxFrame)
	if err != nil {
		return nil, buf, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	if _, err := io.ReadFull(r, buf[:n]); err != nil {
		return nil, buf, midFrame(err)
	}
	return buf[:n], buf, nil
}

// readSection decodes one length-prefixed byte section of a frame body,
// returning the section (nil when empty, aliasing body otherwise) and the
// position after it.
func readSection(body []byte, pos int, name string) ([]byte, int, error) {
	if pos+4 > len(body) {
		return nil, 0, fmt.Errorf("proto: frame truncated before %s length", name)
	}
	n := int(binary.LittleEndian.Uint32(body[pos:]))
	pos += 4
	if n < 0 || pos+n > len(body) {
		return nil, 0, fmt.Errorf("proto: frame %s section truncated (%d B announced)", name, n)
	}
	if n == 0 {
		return nil, pos, nil
	}
	return body[pos : pos+n : pos+n], pos + n, nil
}
