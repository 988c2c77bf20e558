package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
)

// errClass folds a decode error into what a caller can act on: nothing, a
// clean end of stream, a cut frame, a refused length prefix, or a malformed
// frame.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case err == io.EOF:
		return "eof"
	case err == io.ErrUnexpectedEOF:
		return "cut"
	case errors.Is(err, ErrFrameTooLarge):
		return "too large"
	default:
		return "malformed"
	}
}

// bufioSizes are the buffered ways one byte stream reaches a frame decoder —
// smaller than a header, a page, and the size the client and server use (the
// in-place path when the frame fits) — beside the reference: byte by byte
// through a plain io.Reader, the generic path.
var bufioSizes = []int{64, 4 << 10, 64 << 10}

// decodeAll decodes frames from r until one fails, rendering each outcome;
// the last entry is the error class that ended the stream.
func decodeAll(r io.Reader, maxFrame uint32, next func(io.Reader, uint32) (string, error)) []string {
	var out []string
	for {
		s, err := next(r, maxFrame)
		if err != nil {
			return append(out, errClass(err))
		}
		out = append(out, s)
	}
}

func nextResponse(r io.Reader, maxFrame uint32) (string, error) {
	resp, err := ReadResponse(r, maxFrame)
	return fmt.Sprintf("%d %+v %x", resp.Seq, resp.Cpl, resp.Data), err
}

func nextRequest(r io.Reader, maxFrame uint32) (string, error) {
	req, err := ReadRequest(r, maxFrame)
	return fmt.Sprintf("%d %x %x %x", req.Seq, req.Cmd, req.Payload, req.Data), err
}

// pooledRequests is nextRequest through ReadRequestInto with one buffer
// carried from frame to frame, as the server's reader would were it to run
// each request before reading the next.
func pooledRequests() func(io.Reader, uint32) (string, error) {
	var buf []byte
	return func(r io.Reader, maxFrame uint32) (string, error) {
		var req Request
		var err error
		req, buf, err = ReadRequestInto(r, maxFrame, buf)
		return fmt.Sprintf("%d %x %x %x", req.Seq, req.Cmd, req.Payload, req.Data), err
	}
}

// checkDecodersAgree fails unless every reader and decoder form yields the
// same frames and the same final error class for stream: each bufio size
// against the generic path, and the pooled request form against the plain
// one.
func checkDecodersAgree(t *testing.T, name string, stream []byte, maxFrame uint32) {
	t.Helper()
	reference := map[string][]string{}
	for form, next := range map[string]func() func(io.Reader, uint32) (string, error){
		"response":       func() func(io.Reader, uint32) (string, error) { return nextResponse },
		"request":        func() func(io.Reader, uint32) (string, error) { return nextRequest },
		"pooled request": pooledRequests,
	} {
		want := decodeAll(iotest.OneByteReader(bytes.NewReader(stream)), maxFrame, next())
		reference[form] = want
		for _, size := range bufioSizes {
			got := decodeAll(bufio.NewReaderSize(bytes.NewReader(stream), size), maxFrame, next())
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: %s decode through a %d B bufio.Reader yields %d outcomes ending %q, byte by byte %d ending %q",
					name, form, size, len(got), got[len(got)-1], len(want), want[len(want)-1])
			}
		}
	}
	if fmt.Sprint(reference["pooled request"]) != fmt.Sprint(reference["request"]) {
		t.Fatalf("%s: ReadRequestInto with a recycled buffer and ReadRequest decode the stream differently", name)
	}
}

func frameOf(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	switch v := v.(type) {
	case Request:
		err = WriteRequest(&buf, v)
	case Response:
		err = WriteResponse(&buf, v)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrameDecodersAgree: the in-place bufio path, the generic path and the
// pooled request form are one codec. Valid frames of sizes on both sides of
// every buffer boundary, streams cut at every offset, trailing bytes inside
// a frame and a hostile length prefix decode to identical frames and error
// classes whichever way the bytes arrive.
func TestFrameDecodersAgree(t *testing.T) {
	pattern := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*31 + n)
		}
		return b
	}
	var responses, requests []byte
	// Data sizes that put a response frame exactly at and one past each
	// bufio size, around the page, and empty.
	for i, n := range []int{0, 1, 64 - ResponseHeaderLen, 64 - ResponseHeaderLen + 1, 4096 - ResponseHeaderLen, 4096 - ResponseHeaderLen + 1,
		16 << 10, 64<<10 - ResponseHeaderLen, 64<<10 - ResponseHeaderLen + 1} {
		responses = append(responses, frameOf(t, Response{Seq: uint64(i), Cpl: Completion{Status: Status(i % 8), Result0: uint64(n), Result1: 7}, Data: pattern(n)})...)
	}
	page, err := CoordPayload{Coord: []int64{1, 2}, Sub: []int64{3, 4}}.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{0, 1, 300, 16 << 10, 3, 64 << 10} {
		req := Request{Seq: uint64(i), Cmd: NewWrite(uint32(i), 0).Marshal(), Data: pattern(n)}
		if i%2 == 0 {
			req.Payload = page
		}
		requests = append(requests, frameOf(t, req)...)
	}
	checkDecodersAgree(t, "responses", responses, 0)
	checkDecodersAgree(t, "requests", requests, 0)
	checkDecodersAgree(t, "responses under a 4 KiB limit", responses, 4096)
	checkDecodersAgree(t, "requests under a 4 KiB limit", requests, 4096)

	small := append(frameOf(t, Response{Seq: 1, Data: pattern(40)}), frameOf(t, Response{Seq: 2, Cpl: Completion{Status: StatusCapacity}, Data: pattern(100)})...)
	smallReq := append(frameOf(t, Request{Seq: 1, Cmd: NewRead(1, 0).Marshal(), Payload: pattern(24)}), frameOf(t, Request{Seq: 2, Cmd: NewWrite(1, 0).Marshal(), Data: pattern(90)})...)
	for cut := 0; cut <= len(small); cut++ {
		checkDecodersAgree(t, fmt.Sprintf("responses cut at %d", cut), small[:cut], 0)
	}
	for cut := 0; cut <= len(smallReq); cut++ {
		checkDecodersAgree(t, fmt.Sprintf("requests cut at %d", cut), smallReq[:cut], 0)
	}
	// Trailing bytes: the length prefix announces more than the sections use.
	for _, frame := range [][]byte{frameOf(t, Response{Seq: 3, Data: pattern(10)}), frameOf(t, Request{Seq: 3, Data: pattern(10)})} {
		padded := append(append([]byte(nil), frame...), 0xAA, 0xBB)
		binary.LittleEndian.PutUint32(padded, uint32(len(padded)-4))
		checkDecodersAgree(t, "trailing bytes", append(padded, frame...), 0)
	}
}

// refusingReader serves its bytes and fails the test if asked for more: what
// a decoder waits on after the bytes run out is what a hostile peer can make
// it wait on forever.
type refusingReader struct {
	t    *testing.T
	data []byte
}

func (r *refusingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		r.t.Error("decoder asked for bytes past the length prefix it must refuse")
		return 0, io.EOF
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestFrameOversizedPrefixRefusedAtOnce: a length prefix over the limit is
// refused on the four bytes alone — no decoder form waits for (Peeks at) the
// frame it announces.
func TestFrameOversizedPrefixRefusedAtOnce(t *testing.T) {
	prefix := binary.LittleEndian.AppendUint32(nil, 8193)
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"plain":     func(r io.Reader) io.Reader { return r },
		"bufio 64K": func(r io.Reader) io.Reader { return bufio.NewReaderSize(r, 64<<10) },
	} {
		if _, err := ReadResponse(wrap(&refusingReader{t, prefix}), 8192); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("%s: response: %v, want ErrFrameTooLarge", name, err)
		}
		if _, _, err := ReadRequestInto(wrap(&refusingReader{t, prefix}), 8192, make([]byte, 64)); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("%s: request: %v, want ErrFrameTooLarge", name, err)
		}
	}
}

// chunkReader serves one chunk per Read call, so a bufio.Reader refills its
// buffer from the start for every frame.
type chunkReader struct{ chunks [][]byte }

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.chunks[0])
	if r.chunks[0] = r.chunks[0][n:]; len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

// TestFrameResponseDataNotAliased: the Data ReadResponse returns is the
// caller's own. The next frame lands on the same bytes of the reader's
// buffer the first was decoded from, and the first payload does not change.
func TestFrameResponseDataNotAliased(t *testing.T) {
	first, second := bytes.Repeat([]byte{0x11}, 1000), bytes.Repeat([]byte{0x22}, 1000)
	br := bufio.NewReaderSize(&chunkReader{[][]byte{
		frameOf(t, Response{Seq: 1, Data: first}), frameOf(t, Response{Seq: 2, Data: second}),
	}}, 4096)
	got1, err := ReadResponse(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ReadResponse(br, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1.Data, first) || !bytes.Equal(got2.Data, second) {
		t.Fatal("a decoded payload changed when the reader's buffer was refilled: Data aliases the buffer")
	}
	got2.Data[0] = 0x33
	if got1.Data[0] != 0x11 {
		t.Fatal("two responses share payload memory")
	}
}

// TestFrameRequestIntoLease: ReadRequestInto's sections alias the buffer it
// returns — the documented lease — and the buffer is reused, not reallocated,
// when the next frame fits.
func TestFrameRequestIntoLease(t *testing.T) {
	stream := append(frameOf(t, Request{Seq: 1, Data: bytes.Repeat([]byte{0x11}, 500)}), frameOf(t, Request{Seq: 2, Data: bytes.Repeat([]byte{0x22}, 400)})...)
	r := bytes.NewReader(stream)
	req1, buf, err := ReadRequestInto(r, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	held := req1.Data
	req2, buf2, err := ReadRequestInto(r, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &buf2[0] != &buf[0] {
		t.Fatal("a frame that fits the supplied buffer was read into a new one")
	}
	if !bytes.Equal(req2.Data, bytes.Repeat([]byte{0x22}, 400)) {
		t.Fatal("second request corrupted")
	}
	if held[0] != 0x22 {
		t.Fatal("the first request's Data does not alias the recycled buffer: the lease contract changed")
	}
}
