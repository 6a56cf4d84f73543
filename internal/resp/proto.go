// Package resp serves a DataFlasks cluster over RESP2, the Redis
// serialization protocol, so any existing Redis client, benchmark
// driver or workload can talk to the substrate without a bespoke SDK.
//
// The package has two layers. The wire layer (this file) is a
// zero-allocation-minded Reader/Writer pair for the RESP2 framing:
// inline and multibulk commands in, simple/error/integer/bulk/array
// replies out. The server layer (server.go, commands.go) is a
// per-connection state machine that decodes pipelined commands,
// dispatches them as overlapping asynchronous operations on a shared
// dataflasks.Client, and writes replies back in request order — so one
// RESP connection gets the full pipelining win of the future-based
// client API with no client-side changes.
package resp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Wire limits. Redis caps multibulk element counts at 1M and bulk
// payloads at 512 MB; the gateway is more conservative on payloads
// (a DataFlasks value rides whole inside one wire frame end to end).
const (
	// maxArgs bounds the elements of one multibulk command.
	maxArgs = 1024 * 1024
	// maxBulk bounds one bulk payload (a SET value).
	maxBulk = 64 << 20
	// maxCommand bounds one whole command's payload bytes (the sum of
	// its arguments) — the per-arg and arg-count limits alone would
	// still admit a multi-TB command that OOMs the process.
	maxCommand = 256 << 20
	// maxInline bounds one inline command line.
	maxInline = 64 << 10
	// arenaKeep is the largest argument arena retained between
	// commands; one huge MSET must not pin its buffer for the
	// connection's lifetime.
	arenaKeep = 1 << 20
)

// ProtocolError reports malformed RESP input. The server answers it
// with an -ERR Protocol error reply and closes the connection, exactly
// like Redis.
type ProtocolError string

// Error implements error.
func (e ProtocolError) Error() string { return "Protocol error: " + string(e) }

// protoErrf builds a ProtocolError.
func protoErrf(format string, args ...interface{}) ProtocolError {
	return ProtocolError(fmt.Sprintf(format, args...))
}

// Reader decodes RESP2 commands (multibulk and inline forms) from a
// byte stream. Arguments returned by ReadCommand point into an
// internal buffer that is reused by the next call — callers copy what
// they keep, which the gateway does anyway when it hands keys and
// values to the client library.
type Reader struct {
	br *bufio.Reader
	// buf is the flat arena the current command's arguments live in.
	buf []byte
	// args holds the argument slices handed to the caller.
	args [][]byte
	// line is scratch for inline commands and long header lines.
	line []byte
}

// NewReader wraps r for command decoding.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 16<<10)}
}

// ReadCommand decodes the next command. Empty inline lines are skipped
// (Redis does the same — they keep telnet sessions usable). The error
// is a ProtocolError for malformed input (answer and close), or an I/O
// error from the underlying stream.
func (r *Reader) ReadCommand() ([][]byte, error) {
	// Release an oversized argument arena from the previous command
	// before decoding the next, whichever form it takes: one huge MSET
	// must not pin its buffer for the connection's lifetime.
	if cap(r.buf) > arenaKeep {
		r.buf = nil
	}
	for {
		first, err := r.br.ReadByte()
		if err != nil {
			return nil, err
		}
		if first == '*' {
			args, err := r.readMultibulk()
			if err != nil {
				return nil, err
			}
			if len(args) == 0 {
				continue // "*0\r\n": an empty command, nothing to run
			}
			return args, nil
		}
		if err := r.br.UnreadByte(); err != nil {
			return nil, err
		}
		args, err := r.readInline()
		if err != nil {
			return nil, err
		}
		if len(args) == 0 {
			continue // bare CRLF between commands
		}
		return args, nil
	}
}

// readMultibulk parses "*N\r\n" followed by N bulk strings; the leading
// '*' is already consumed.
func (r *Reader) readMultibulk() ([][]byte, error) {
	n, err := r.readHeaderInt('*')
	if err != nil {
		return nil, err
	}
	if n < 0 || n > maxArgs {
		return nil, protoErrf("invalid multibulk length")
	}
	r.buf = r.buf[:0]
	r.args = r.args[:0]
	// offs records each argument as (start, end) into r.buf: appending
	// to the arena may reallocate it, so slices are cut only at the end.
	// The capacity hint is clamped: n comes straight off the wire, and
	// a header-only attacker must not get a 16MB allocation for free.
	capHint := n
	if capHint > 64 {
		capHint = 64
	}
	offs := make([][2]int, 0, capHint)
	for i := int64(0); i < n; i++ {
		first, err := r.br.ReadByte()
		if err != nil {
			return nil, eofIsUnexpected(err)
		}
		if first != '$' {
			return nil, protoErrf("expected '$', got '%s'", printable(first))
		}
		ln, err := r.readHeaderInt('$')
		if err != nil {
			return nil, err
		}
		if ln < 0 || ln > maxBulk {
			return nil, protoErrf("invalid bulk length")
		}
		if int64(len(r.buf))+ln > maxCommand {
			return nil, protoErrf("command payload too large")
		}
		start := len(r.buf)
		r.buf = append(r.buf, make([]byte, ln)...)
		if _, err := io.ReadFull(r.br, r.buf[start:]); err != nil {
			return nil, eofIsUnexpected(err)
		}
		if err := r.expectCRLF(); err != nil {
			return nil, err
		}
		offs = append(offs, [2]int{start, len(r.buf)})
	}
	for _, o := range offs {
		r.args = append(r.args, r.buf[o[0]:o[1]])
	}
	return r.args, nil
}

// readHeaderInt parses the decimal integer and CRLF of a "*N" or "$N"
// header whose type byte is already consumed.
func (r *Reader) readHeaderInt(kind byte) (int64, error) {
	line, err := r.readLine()
	if err != nil {
		return 0, err
	}
	if len(line) == 0 {
		return 0, protoErrf("invalid %s header", printable(kind))
	}
	neg := false
	i := 0
	if line[0] == '-' {
		neg = true
		i = 1
		if len(line) == 1 {
			return 0, protoErrf("invalid %s header", printable(kind))
		}
	}
	var n int64
	for ; i < len(line); i++ {
		c := line[i]
		if c < '0' || c > '9' {
			return 0, protoErrf("invalid %s header", printable(kind))
		}
		n = n*10 + int64(c-'0')
		if n > maxBulk+1 { // bounds both header kinds; avoids overflow
			return 0, protoErrf("invalid %s header", printable(kind))
		}
	}
	if neg {
		n = -n
	}
	return n, nil
}

// readInline parses one inline command line into whitespace-separated
// arguments (no quoting — the inline form exists for telnet debugging;
// binary payloads belong in multibulk).
func (r *Reader) readInline() ([][]byte, error) {
	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	r.buf = append(r.buf[:0], line...)
	r.args = r.args[:0]
	start := -1
	for i := 0; i <= len(r.buf); i++ {
		atSep := i == len(r.buf) || r.buf[i] == ' ' || r.buf[i] == '\t'
		switch {
		case atSep && start >= 0:
			r.args = append(r.args, r.buf[start:i])
			start = -1
		case !atSep && start < 0:
			start = i
		}
	}
	return r.args, nil
}

// readLine reads through the next LF, tolerating lines longer than the
// bufio buffer, and returns the line with its trailing CRLF (or bare
// LF) stripped. Lines beyond maxInline are a protocol error.
func (r *Reader) readLine() ([]byte, error) {
	r.line = r.line[:0]
	for {
		frag, err := r.br.ReadSlice('\n')
		r.line = append(r.line, frag...)
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if len(r.line) > maxInline {
				return nil, protoErrf("too big inline request")
			}
			continue
		}
		return nil, eofIsUnexpected(err)
	}
	if len(r.line) > maxInline {
		return nil, protoErrf("too big inline request")
	}
	line := r.line[:len(r.line)-1] // strip LF
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, nil
}

// expectCRLF consumes the terminator after a bulk payload.
func (r *Reader) expectCRLF() error {
	cr, err := r.br.ReadByte()
	if err != nil {
		return eofIsUnexpected(err)
	}
	lf, err := r.br.ReadByte()
	if err != nil {
		return eofIsUnexpected(err)
	}
	if cr != '\r' || lf != '\n' {
		return protoErrf("expected CRLF after bulk payload")
	}
	return nil
}

// eofIsUnexpected maps a clean EOF mid-frame to ErrUnexpectedEOF so
// callers can distinguish "connection closed between commands" (EOF
// from ReadCommand's first byte) from a truncated frame.
func eofIsUnexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// printable renders a byte for error messages without control noise.
func printable(b byte) string {
	if b >= 0x20 && b < 0x7f {
		return string(rune(b))
	}
	return fmt.Sprintf("\\x%02x", b)
}

// Writer encodes RESP2 replies onto a buffered stream. It is not safe
// for concurrent use; the server's per-connection writer goroutine owns
// it. Flush is explicit so pipelined replies coalesce into few writes.
type Writer struct {
	bw      *bufio.Writer
	scratch []byte
}

// NewWriter wraps w for reply encoding.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 16<<10)}
}

// Simple writes "+s\r\n".
func (w *Writer) Simple(s string) error {
	w.bw.WriteByte('+')
	w.bw.WriteString(s)
	_, err := w.bw.WriteString("\r\n")
	return err
}

// Error writes "-msg\r\n". msg should start with an error code word
// ("ERR ...", "WRONGTYPE ...").
func (w *Writer) Error(msg string) error {
	w.bw.WriteByte('-')
	w.bw.WriteString(sanitizeLine(msg))
	_, err := w.bw.WriteString("\r\n")
	return err
}

// Int writes ":n\r\n".
func (w *Writer) Int(n int64) error {
	w.bw.WriteByte(':')
	w.scratch = strconv.AppendInt(w.scratch[:0], n, 10)
	w.bw.Write(w.scratch)
	_, err := w.bw.WriteString("\r\n")
	return err
}

// Bulk writes "$len\r\nb\r\n".
func (w *Writer) Bulk(b []byte) error {
	w.bw.WriteByte('$')
	w.scratch = strconv.AppendInt(w.scratch[:0], int64(len(b)), 10)
	w.bw.Write(w.scratch)
	w.bw.WriteString("\r\n")
	w.bw.Write(b)
	_, err := w.bw.WriteString("\r\n")
	return err
}

// BulkString writes a string bulk without copying through a []byte.
func (w *Writer) BulkString(s string) error {
	w.bw.WriteByte('$')
	w.scratch = strconv.AppendInt(w.scratch[:0], int64(len(s)), 10)
	w.bw.Write(w.scratch)
	w.bw.WriteString("\r\n")
	w.bw.WriteString(s)
	_, err := w.bw.WriteString("\r\n")
	return err
}

// Null writes the RESP2 null bulk "$-1\r\n" (missing key).
func (w *Writer) Null() error {
	_, err := w.bw.WriteString("$-1\r\n")
	return err
}

// Array writes the "*n\r\n" header; the caller then writes n elements.
func (w *Writer) Array(n int) error {
	w.bw.WriteByte('*')
	w.scratch = strconv.AppendInt(w.scratch[:0], int64(n), 10)
	w.bw.Write(w.scratch)
	_, err := w.bw.WriteString("\r\n")
	return err
}

// Flush pushes buffered replies to the connection.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Buffered reports bytes waiting for Flush.
func (w *Writer) Buffered() int { return w.bw.Buffered() }

// sanitizeLine strips CR/LF so a message can never break RESP framing.
func sanitizeLine(s string) string {
	clean := false
	for i := 0; i < len(s); i++ {
		if s[i] == '\r' || s[i] == '\n' {
			clean = true
			break
		}
	}
	if !clean {
		return s
	}
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\r' || s[i] == '\n' {
			b = append(b, ' ')
			continue
		}
		b = append(b, s[i])
	}
	return string(b)
}
