package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout:
//
//	magic   uint16 = 0xA60A ("Agora")
//	version uint8  = 1
//	kind    uint8
//	length  uint32 (payload bytes)
//	crc32   uint32 (IEEE, over payload)
//	payload [length]byte
const (
	Magic       = 0xA60A
	Version     = 1
	headerSize  = 2 + 1 + 1 + 4 + 4
	maxFrameLen = 64 << 20
)

// Kind identifies a message type inside a frame.
type Kind uint8

// Message kinds spoken by agora nodes. Every kind has its number written
// out, because a number must never change: KindProfilePart's 17 is on disk
// in every profile file. 14-16 stay unassigned, since older peers may still
// send the feed frames that once used them.
const (
	KindHello         Kind = 1
	KindHelloAck      Kind = 2
	KindGossip        Kind = 3
	KindQuery         Kind = 4
	KindQueryResult   Kind = 5
	KindCallForOffers Kind = 6
	KindOffer         Kind = 7
	KindCounterOffer  Kind = 8
	KindAccept        Kind = 9
	KindReject        Kind = 10
	KindContract      Kind = 11
	KindDelivery      Kind = 12
	KindBreach        Kind = 13
	KindProfilePart   Kind = 17
	KindCollabOp      Kind = 18
	KindPing          Kind = 19
	KindPong          Kind = 20
)

var kindNames = map[Kind]string{
	KindHello: "hello", KindHelloAck: "helloAck", KindGossip: "gossip",
	KindQuery: "query", KindQueryResult: "queryResult",
	KindCallForOffers: "callForOffers", KindOffer: "offer",
	KindCounterOffer: "counterOffer", KindAccept: "accept",
	KindReject: "reject", KindContract: "contract",
	KindDelivery: "delivery", KindBreach: "breach",
	KindProfilePart: "profilePart",
	KindCollabOp:    "collabOp", KindPing: "ping", KindPong: "pong",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Frame is a decoded message envelope.
type Frame struct {
	Kind    Kind
	Payload []byte
}

// Appender is a message that can marshal itself onto the end of a
// caller-owned buffer without allocating: every message of this package
// implements it, and the transport encodes each frame it writes through it
// into a buffer the connection reuses.
type Appender interface {
	AppendTo(dst []byte) []byte
}

// EncodeFrame appends the framed message to dst and returns the result.
func EncodeFrame(dst []byte, kind Kind, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, byte(kind))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	dst = append(dst, payload...)
	return dst
}

// BeginFrame appends a frame header placeholder for kind to dst and
// returns the extended slice plus the header's offset. The caller appends
// the payload directly after it (AppendTo) and seals the frame with
// EndFrame — one pass, no intermediate payload buffer. Frames staged this
// way are byte-identical to EncodeFrame over the same payload.
func BeginFrame(dst []byte, kind Kind) ([]byte, int) {
	off := len(dst)
	dst = binary.LittleEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, byte(kind))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // length, patched by EndFrame
	dst = binary.LittleEndian.AppendUint32(dst, 0) // crc32, patched by EndFrame
	return dst, off
}

// EndFrame seals a frame begun at off: everything appended past the
// header becomes the payload, whose length and CRC are patched in place.
func EndFrame(dst []byte, off int) []byte {
	payload := dst[off+headerSize:]
	binary.LittleEndian.PutUint32(dst[off+4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[off+8:], crc32.ChecksumIEEE(payload))
	return dst
}

// AppendFrame stages one complete message frame onto dst: header,
// payload via m.AppendTo, length/CRC patch. The allocation-free composition
// of BeginFrame + AppendTo + EndFrame.
func AppendFrame(dst []byte, kind Kind, m Appender) []byte {
	dst, off := BeginFrame(dst, kind)
	dst = m.AppendTo(dst)
	return EndFrame(dst, off)
}

// parseHeader checks a frame header (at least headerSize bytes) and returns
// the frame's kind, payload length and payload checksum.
func parseHeader(hdr []byte) (Kind, uint32, uint32, error) {
	if binary.LittleEndian.Uint16(hdr) != Magic {
		return 0, 0, 0, ErrBadMagic
	}
	if hdr[2] != Version {
		return 0, 0, 0, fmt.Errorf("%w: %d", ErrVersion, hdr[2])
	}
	length := binary.LittleEndian.Uint32(hdr[4:])
	if length > maxFrameLen {
		return 0, 0, 0, fmt.Errorf("%w: frame %d", ErrTooLarge, length)
	}
	return Kind(hdr[3]), length, binary.LittleEndian.Uint32(hdr[8:]), nil
}

// DecodeFrame parses one frame from buf, returning the frame and the number
// of bytes consumed. It returns ErrShortBuffer if buf does not hold a
// complete frame yet (callers accumulating a stream retry with more data).
func DecodeFrame(buf []byte) (Frame, int, error) {
	if len(buf) < headerSize {
		return Frame{}, 0, ErrShortBuffer
	}
	kind, length, want, err := parseHeader(buf)
	if err != nil {
		return Frame{}, 0, err
	}
	total := headerSize + int(length)
	if len(buf) < total {
		return Frame{}, 0, ErrShortBuffer
	}
	payload := buf[headerSize:total]
	if crc32.ChecksumIEEE(payload) != want {
		return Frame{}, 0, ErrChecksum
	}
	out := make([]byte, length)
	copy(out, payload)
	return Frame{Kind: kind, Payload: out}, total, nil
}

// WriteFrame writes one framed message to w.
func WriteFrame(w io.Writer, kind Kind, payload []byte) error {
	buf := EncodeFrame(make([]byte, 0, headerSize+len(payload)), kind, payload)
	_, err := w.Write(buf)
	return err
}

// FrameReader decodes a frame stream with reused buffers: the header
// scratch lives in the reader and the payload buffer grows once to the
// connection's high-water frame size, then is handed out again and again.
//
// Ownership rule: the Frame returned by Next aliases the reader's
// internal payload buffer and is valid only until the next Next call.
// Decode it (Unmarshal* copies every field) or copy it before reading
// on; never retain Frame.Payload. Callers that need an owned payload use
// ReadFrame instead.
type FrameReader struct {
	r       *bufio.Reader
	hdr     [headerSize]byte
	payload []byte
}

// NewFrameReader returns a pooled-buffer frame decoder over r.
func NewFrameReader(r *bufio.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Next reads one frame. The returned payload is valid only until the
// following Next call — see the FrameReader ownership rule.
func (fr *FrameReader) Next() (Frame, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return Frame{}, err
	}
	kind, length, want, err := parseHeader(fr.hdr[:])
	if err != nil {
		return Frame{}, err
	}
	payload := fr.payload[:0]
	for len(payload) < int(length) {
		if len(payload) == cap(payload) {
			// Pool miss: the buffer grows to the connection's high-water frame
			// size, then every further frame reuses it. The length is the
			// header's claim until the bytes arrive, so the buffer at most
			// doubles per read: a peer that claims 64 MiB and stops makes the
			// reader hold what it sent, not what it claimed.
			payload = append(make([]byte, 0, min(int(length), max(2*cap(payload), fr.r.Size()))), payload...) //lint:allow wirealloc documented pool miss: growth to the high-water frame size, amortized across the connection
			fr.payload = payload
		}
		n, err := io.ReadFull(fr.r, payload[len(payload):min(cap(payload), int(length))])
		if err == io.EOF && len(payload) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return Frame{}, fmt.Errorf("wire: reading payload: %w", err)
		}
		payload = payload[:len(payload)+n]
	}
	if crc32.ChecksumIEEE(payload) != want {
		return Frame{}, ErrChecksum
	}
	return Frame{Kind: kind, Payload: payload}, nil
}

// ReadFrame reads one framed message from a buffered reader. The returned
// payload is freshly allocated and owned by the caller — it is the one frame
// a FrameReader of its own ever hands out; the streaming paths keep theirs
// and so reuse its buffers.
func ReadFrame(r *bufio.Reader) (Frame, error) {
	return NewFrameReader(r).Next()
}
