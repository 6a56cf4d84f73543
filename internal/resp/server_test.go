package resp_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"dataflasks"
	"dataflasks/internal/metrics"
	"dataflasks/internal/resp"
)

// gatewayGetTimeout is one attempt of the test gateway's reads. A miss
// costs the read attempt budget; it is short so the null-reply cases
// don't dominate the test.
const gatewayGetTimeout = 100 * time.Millisecond

// startGateway boots a real single-node TCP deployment (static slicer,
// one slice: the node serves every key immediately) behind a RESP
// gateway — the exact wiring flasksd -resp-addr uses — and returns the
// gateway address plus its stats registry.
func startGateway(t *testing.T) (string, *metrics.CommandStats) {
	t.Helper()
	cfg := dataflasks.Config{Slices: 1, Slicer: dataflasks.StaticSlicer, SystemSize: 1}
	node, err := dataflasks.StartNode(dataflasks.NodeConfig{
		ID:          1,
		Bind:        "127.0.0.1:0",
		RoundPeriod: 25 * time.Millisecond,
		Config:      cfg,
	})
	if err != nil {
		t.Fatalf("StartNode: %v", err)
	}
	t.Cleanup(func() { _ = node.Close() })

	cl, err := dataflasks.ConnectClient("127.0.0.1:0",
		[]string{fmt.Sprintf("1@%s", node.Addr())}, cfg)
	if err != nil {
		t.Fatalf("ConnectClient: %v", err)
	}
	t.Cleanup(cl.Close)

	stats := metrics.NewCommandStats()
	srv := resp.NewServer(cl, resp.Config{
		GetTimeout: gatewayGetTimeout,
		GetRetries: 1,
		Stats:      stats,
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr.String(), stats
}

func dialGateway(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial gateway: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// roundTrip writes send and asserts the next len(want) reply bytes
// match byte-for-byte.
func roundTrip(t *testing.T, conn net.Conn, br *bufio.Reader, send, want string) {
	t.Helper()
	if _, err := conn.Write([]byte(send)); err != nil {
		t.Fatalf("write %q: %v", send, err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	got := make([]byte, len(want))
	if _, err := io.ReadFull(br, got); err != nil {
		t.Fatalf("reply to %q: %v (got %q so far)", send, err, got)
	}
	if string(got) != want {
		t.Fatalf("reply to %q:\n got %q\nwant %q", send, got, want)
	}
}

// TestGatewayConformance drives the full command table — inline and
// multibulk forms, hits and misses, wrong arity and unknown commands —
// and asserts every reply byte-for-byte.
func TestGatewayConformance(t *testing.T) {
	addr, stats := startGateway(t)
	conn := dialGateway(t, addr)
	br := bufio.NewReader(conn)

	// Liveness and echo, both command forms.
	roundTrip(t, conn, br, "*1\r\n$4\r\nPING\r\n", "+PONG\r\n")
	roundTrip(t, conn, br, "PING\r\n", "+PONG\r\n")
	roundTrip(t, conn, br, "*2\r\n$4\r\nPING\r\n$5\r\nhello\r\n", "$5\r\nhello\r\n")
	roundTrip(t, conn, br, "*2\r\n$4\r\nECHO\r\n$3\r\nabc\r\n", "$3\r\nabc\r\n")
	roundTrip(t, conn, br, "ECHO inline-arg\r\n", "$10\r\ninline-arg\r\n")

	// Case-insensitive dispatch.
	roundTrip(t, conn, br, "*3\r\n$3\r\nset\r\n$2\r\nk1\r\n$2\r\nv1\r\n", "+OK\r\n")
	roundTrip(t, conn, br, "*2\r\n$3\r\nGeT\r\n$2\r\nk1\r\n", "$2\r\nv1\r\n")

	// SET overwrites: the gateway mints increasing versions, GET reads
	// newest.
	roundTrip(t, conn, br, "*3\r\n$3\r\nSET\r\n$2\r\nk1\r\n$5\r\nv1bis\r\n", "+OK\r\n")
	roundTrip(t, conn, br, "*2\r\n$3\r\nGET\r\n$2\r\nk1\r\n", "$5\r\nv1bis\r\n")

	// Binary-safe values (embedded CRLF).
	roundTrip(t, conn, br, "*3\r\n$3\r\nSET\r\n$3\r\nbin\r\n$4\r\na\r\nb\r\n", "+OK\r\n")
	roundTrip(t, conn, br, "*2\r\n$3\r\nGET\r\n$3\r\nbin\r\n", "$4\r\na\r\nb\r\n")

	// Misses answer null after the read budget.
	roundTrip(t, conn, br, "*2\r\n$3\r\nGET\r\n$7\r\nmissing\r\n", "$-1\r\n")

	// MSET / MGET / EXISTS / DEL over multiple keys.
	roundTrip(t, conn, br,
		"*5\r\n$4\r\nMSET\r\n$2\r\nma\r\n$2\r\nva\r\n$2\r\nmb\r\n$2\r\nvb\r\n", "+OK\r\n")
	roundTrip(t, conn, br,
		"*4\r\n$4\r\nMGET\r\n$2\r\nma\r\n$7\r\nmissing\r\n$2\r\nmb\r\n",
		"*3\r\n$2\r\nva\r\n$-1\r\n$2\r\nvb\r\n")
	roundTrip(t, conn, br,
		"*4\r\n$6\r\nEXISTS\r\n$2\r\nma\r\n$7\r\nmissing\r\n$2\r\nmb\r\n", ":2\r\n")
	roundTrip(t, conn, br,
		"*4\r\n$3\r\nDEL\r\n$2\r\nma\r\n$2\r\nmb\r\n$7\r\nmissing\r\n", ":2\r\n")
	roundTrip(t, conn, br, "*2\r\n$6\r\nEXISTS\r\n$2\r\nma\r\n", ":0\r\n")

	// A key SET repeatedly accumulates versions; DEL must remove the
	// WHOLE key (Redis semantics), not just tombstone the newest
	// version and resurface an older value.
	roundTrip(t, conn, br, "*3\r\n$3\r\nSET\r\n$5\r\nmulti\r\n$2\r\nv1\r\n", "+OK\r\n")
	roundTrip(t, conn, br, "*3\r\n$3\r\nSET\r\n$5\r\nmulti\r\n$2\r\nv2\r\n", "+OK\r\n")
	roundTrip(t, conn, br, "*3\r\n$3\r\nSET\r\n$5\r\nmulti\r\n$2\r\nv3\r\n", "+OK\r\n")
	roundTrip(t, conn, br, "*2\r\n$3\r\nDEL\r\n$5\r\nmulti\r\n", ":1\r\n")
	roundTrip(t, conn, br, "*2\r\n$3\r\nGET\r\n$5\r\nmulti\r\n", "$-1\r\n")

	// A key bound twice in one MSET resolves to its LAST value (each
	// pair gets its own minted version; a shared one would drop the
	// second put as an idempotent no-op).
	roundTrip(t, conn, br,
		"*5\r\n$4\r\nMSET\r\n$3\r\ndup\r\n$5\r\nfirst\r\n$3\r\ndup\r\n$4\r\nlast\r\n", "+OK\r\n")
	roundTrip(t, conn, br, "*2\r\n$3\r\nGET\r\n$3\r\ndup\r\n", "$4\r\nlast\r\n")

	// Redis SET options are valid arity but unsupported semantics: the
	// reply is a syntax error, not a wrong-arity complaint.
	roundTrip(t, conn, br, "*5\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n$2\r\nEX\r\n$2\r\n10\r\n",
		"-ERR syntax error\r\n")

	// A key over the store's 128-byte bound is refused by the client
	// before anything is sent: an error naming the cause, not silence
	// until the write budget runs out. (The reply quotes the minted
	// version, so it is matched by its parts.)
	long := strings.Repeat("k", 129)
	for _, cmd := range []string{
		"*3\r\n$3\r\nSET\r\n$129\r\n" + long + "\r\n$1\r\nv\r\n",
		"*5\r\n$4\r\nMSET\r\n$2\r\nok\r\n$1\r\nv\r\n$129\r\n" + long + "\r\n$1\r\nv\r\n",
	} {
		if _, err := conn.Write([]byte(cmd)); err != nil {
			t.Fatalf("write oversized-key command: %v", err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		line, err := br.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, "-ERR ") || !strings.Contains(line, "key too long") {
			t.Fatalf("oversized key reply = %q, %v; want -ERR ... key too long", line, err)
		}
	}
	roundTrip(t, conn, br, "*2\r\n$6\r\nEXISTS\r\n$2\r\nok\r\n", ":0\r\n") // the refused MSET stored nothing
	// Nobody can hold such a key, so reading it is a miss that needs no
	// asking: null / 0 at once, not after the read budget like "missing".
	start := time.Now()
	roundTrip(t, conn, br, "*2\r\n$3\r\nGET\r\n$129\r\n"+long+"\r\n", "$-1\r\n")
	roundTrip(t, conn, br, "*2\r\n$6\r\nEXISTS\r\n$129\r\n"+long+"\r\n", ":0\r\n")
	if took := time.Since(start); took >= gatewayGetTimeout {
		t.Fatalf("GET and EXISTS of an oversized key took %v, want well inside one GetTimeout (%v)", took, gatewayGetTimeout)
	}

	// MSET with an odd tail is rejected without touching the store.
	roundTrip(t, conn, br,
		"*4\r\n$4\r\nMSET\r\n$1\r\nx\r\n$1\r\n1\r\n$1\r\ny\r\n",
		"-ERR wrong number of arguments for 'mset' command\r\n")

	// Wrong arity and unknown commands answer errors and keep the
	// connection usable.
	roundTrip(t, conn, br, "*1\r\n$3\r\nGET\r\n",
		"-ERR wrong number of arguments for 'get' command\r\n")
	roundTrip(t, conn, br, "*1\r\n$7\r\nFLUSHDB\r\n",
		"-ERR unknown command 'FLUSHDB'\r\n")
	roundTrip(t, conn, br, "PING\r\n", "+PONG\r\n")

	// Introspection: COMMAND COUNT, COMMAND DOCS, HELLO negotiation.
	roundTrip(t, conn, br, "*2\r\n$7\r\nCOMMAND\r\n$5\r\nCOUNT\r\n", ":12\r\n")
	roundTrip(t, conn, br, "*2\r\n$7\r\nCOMMAND\r\n$4\r\nDOCS\r\n", "*0\r\n")
	roundTrip(t, conn, br, "*2\r\n$5\r\nHELLO\r\n$1\r\n3\r\n",
		"-NOPROTO unsupported protocol version\r\n")

	// INFO is a bulk reply carrying the per-command stats.
	if _, err := conn.Write([]byte("*1\r\n$4\r\nINFO\r\n")); err != nil {
		t.Fatalf("write INFO: %v", err)
	}
	header, err := br.ReadString('\n')
	if err != nil || header[0] != '$' {
		t.Fatalf("INFO header %q: %v", header, err)
	}
	n := 0
	if _, err := fmt.Sscanf(header, "$%d\r\n", &n); err != nil {
		t.Fatalf("INFO length: %v", err)
	}
	body := make([]byte, n+2)
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatalf("INFO body: %v", err)
	}
	for _, want := range []string{"# Server", "server:dataflasks-resp-gateway", "cmdstat_set:", "cmdstat_get:",
		"directory_hits:", "directory_fallbacks:", "directory_evictions:", "directory_local:"} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("INFO body missing %q:\n%s", want, body)
		}
	}

	// QUIT acknowledges and closes.
	roundTrip(t, conn, br, "*1\r\n$4\r\nQUIT\r\n", "+OK\r\n")
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection open after QUIT: %v", err)
	}

	if calls, _ := stats.Totals(); calls == 0 {
		t.Fatal("command stats recorded nothing")
	}
	if got := stats.Stat("set").Calls.Load(); got < 3 {
		t.Fatalf("cmdstat set calls = %d, want >= 3", got)
	}
	if got := stats.Stat("unknown").Errors.Load(); got == 0 {
		t.Fatal("unknown-command errors not counted")
	}
}

// TestGatewayPipelined floods one connection with interleaved writes
// and reads in a single TCP burst and asserts the replies come back
// complete and in request order.
func TestGatewayPipelined(t *testing.T) {
	addr, _ := startGateway(t)
	conn := dialGateway(t, addr)
	br := bufio.NewReader(conn)

	const ops = 100
	var req, want bytes.Buffer
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("pipe%03d", i)
		val := fmt.Sprintf("val%03d", i)
		fmt.Fprintf(&req, "*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$%d\r\n%s\r\n",
			len(key), key, len(val), val)
		want.WriteString("+OK\r\n")
	}
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("pipe%03d", i)
		val := fmt.Sprintf("val%03d", i)
		fmt.Fprintf(&req, "*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n", len(key), key)
		fmt.Fprintf(&want, "$%d\r\n%s\r\n", len(val), val)
	}
	if _, err := conn.Write(req.Bytes()); err != nil {
		t.Fatalf("write pipeline: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	got := make([]byte, want.Len())
	if _, err := io.ReadFull(br, got); err != nil {
		t.Fatalf("read pipeline replies: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("pipelined replies diverge:\n got %q\nwant %q", got, want.Bytes())
	}
}

// TestGatewayEarlyFlush proves a fast command's reply is not withheld
// behind a slow one queued after it: SET's +OK must reach the client
// while the following GET of a missing key is still waiting out its
// read budget.
func TestGatewayEarlyFlush(t *testing.T) {
	addr, _ := startGateway(t)
	conn := dialGateway(t, addr)
	br := bufio.NewReader(conn)

	// Pipeline: a SET (completes in ~ms) then a GET miss (~2x100ms
	// budget). The +OK must arrive well before the miss resolves.
	burst := "*3\r\n$3\r\nSET\r\n$4\r\nfast\r\n$1\r\nv\r\n" +
		"*2\r\n$3\r\nGET\r\n$10\r\nslow-miss-\r\n"
	start := time.Now()
	if _, err := conn.Write([]byte(burst)); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	ok := make([]byte, len("+OK\r\n"))
	if _, err := io.ReadFull(br, ok); err != nil {
		t.Fatalf("read +OK: %v", err)
	}
	okAt := time.Since(start)
	if string(ok) != "+OK\r\n" {
		t.Fatalf("first reply = %q", ok)
	}
	null := make([]byte, len("$-1\r\n"))
	if _, err := io.ReadFull(br, null); err != nil {
		t.Fatalf("read null: %v", err)
	}
	missAt := time.Since(start)
	if string(null) != "$-1\r\n" {
		t.Fatalf("second reply = %q", null)
	}
	// The miss pays its budget (>= ~200ms); the +OK must not have
	// waited for it.
	if missAt < 100*time.Millisecond {
		t.Fatalf("miss resolved in %s — read budget not exercised, test proves nothing", missAt)
	}
	if okAt > missAt/2 {
		t.Fatalf("+OK arrived at %s, withheld behind the %s miss", okAt, missAt)
	}
}

// TestGatewayProtocolErrorCloses proves malformed framing draws one
// -ERR Protocol error reply and a severed connection, like Redis.
func TestGatewayProtocolErrorCloses(t *testing.T) {
	addr, _ := startGateway(t)
	conn := dialGateway(t, addr)
	br := bufio.NewReader(conn)

	if _, err := conn.Write([]byte("*1\r\n+OK\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("read error reply: %v", err)
	}
	if !strings.HasPrefix(line, "-ERR Protocol error") {
		t.Fatalf("reply = %q, want -ERR Protocol error...", line)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection still open after protocol error: %v", err)
	}
}
