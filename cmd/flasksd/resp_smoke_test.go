package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"dataflasks/internal/obs"
)

// TestFlasksdRESPGatewaySmoke builds the real flasksd binary, boots it
// with -resp-addr on a free port, and runs a scripted pipelined RESP
// conversation against it, asserting the replies byte-for-byte. It is
// the end-to-end proof that "any Redis client can talk to a flasksd":
// everything from flag parsing through the gateway's client to the
// epidemic store runs for real. It ends with the gateway's cost on a lone
// node: its client lives in the node's process, so 100 SET/GET pairs put
// nothing on a wire. Slow path — skipped under -short (CI runs it as a
// dedicated non-short step).
func TestFlasksdRESPGatewaySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real daemon; skipped in -short")
	}

	bin := filepath.Join(t.TempDir(), "flasksd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build flasksd: %v\n%s", err, out)
	}

	// A singleton deployment: one slice, static slicer (a lone node has
	// no gossip stream to estimate rank from), the log engine on a data
	// directory, RESP on an OS-chosen port that is parsed back out of the
	// boot log.
	daemon := exec.Command(bin,
		"-id", "1", "-bind", "127.0.0.1:0",
		"-engine", "log", "-data", t.TempDir(),
		"-slices", "1", "-slicer", "static", "-system-size", "1",
		"-period", "50ms", "-status", "0",
		"-resp-addr", "127.0.0.1:0", "-http-addr", "127.0.0.1:0")
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatalf("start flasksd: %v", err)
	}
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	respAddrCh, httpAddrCh := make(chan string, 1), make(chan string, 1)
	go func() {
		announced := []struct {
			re *regexp.Regexp
			ch chan string
		}{
			{regexp.MustCompile(`resp gateway listening on (\S+)`), respAddrCh},
			{regexp.MustCompile(`observability plane listening on (\S+)`), httpAddrCh},
		}
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			logMu.Lock()
			logBuf.WriteString(sc.Text())
			logBuf.WriteByte('\n')
			logMu.Unlock()
			for _, a := range announced {
				if m := a.re.FindStringSubmatch(sc.Text()); m != nil {
					select {
					case a.ch <- m[1]:
					default:
					}
				}
			}
		}
	}()
	defer func() {
		_ = daemon.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { _ = daemon.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = daemon.Process.Kill()
			<-done
		}
	}()

	var addr, httpAddr string
	for addr == "" || httpAddr == "" {
		select {
		case addr = <-respAddrCh:
		case httpAddr = <-httpAddrCh:
		case <-time.After(30 * time.Second):
			logMu.Lock()
			defer logMu.Unlock()
			t.Fatalf("flasksd never announced the RESP gateway and the observability plane; log:\n%s", logBuf.String())
		}
	}

	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		t.Fatalf("dial gateway %s: %v", addr, err)
	}
	defer conn.Close()

	// The scripted conversation: every data command of the gateway's
	// table, pipelined in one burst, replies asserted byte-for-byte.
	script := "*3\r\n$3\r\nSET\r\n$5\r\nhello\r\n$5\r\nworld\r\n" +
		"*2\r\n$3\r\nGET\r\n$5\r\nhello\r\n" +
		"*5\r\n$4\r\nMSET\r\n$1\r\na\r\n$2\r\nv1\r\n$1\r\nb\r\n$2\r\nv2\r\n" +
		"*3\r\n$4\r\nMGET\r\n$1\r\na\r\n$1\r\nb\r\n" +
		"*4\r\n$6\r\nEXISTS\r\n$1\r\na\r\n$1\r\nb\r\n$5\r\nhello\r\n" +
		"*3\r\n$3\r\nDEL\r\n$1\r\na\r\n$1\r\nb\r\n" +
		"PING\r\n" +
		"*1\r\n$4\r\nQUIT\r\n"
	want := "+OK\r\n" +
		"$5\r\nworld\r\n" +
		"+OK\r\n" +
		"*2\r\n$2\r\nv1\r\n$2\r\nv2\r\n" +
		":3\r\n" +
		":2\r\n" +
		"+PONG\r\n" +
		"+OK\r\n"

	if _, err := conn.Write([]byte(script)); err != nil {
		t.Fatalf("write conversation: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	got, err := io.ReadAll(conn) // QUIT closes the connection cleanly
	if err != nil {
		t.Fatalf("read replies: %v (got %q)", err, got)
	}
	if string(got) != want {
		t.Fatalf("conversation replies diverge:\n got %q\nwant %q", got, want)
	}
	fmt.Printf("flasksd RESP smoke: %d reply bytes matched byte-for-byte\n", len(got))

	// 100 SET/GET pairs of 1 KiB on a second connection, then the node's
	// own count of the bytes it encoded for a socket: a lone node has no
	// peer to gossip with, and its gateway's client reaches it by function
	// call, so not even one value's worth. (Through a loopback socket to
	// itself the node encodes every GET reply: over 100 KiB.)
	conn2, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		t.Fatalf("dial gateway %s: %v", addr, err)
	}
	defer conn2.Close()
	_ = conn2.SetDeadline(time.Now().Add(60 * time.Second))
	br := bufio.NewReader(conn2)
	value := bytes.Repeat([]byte("x"), 1<<10)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("wire-%03d", i)
		value[0] = byte('a' + i%26)
		fmt.Fprintf(conn2, "*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$%d\r\n%s\r\n*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n",
			len(key), key, len(value), value, len(key), key)
		wantReply := fmt.Sprintf("+OK\r\n$%d\r\n%s\r\n", len(value), value)
		reply := make([]byte, len(wantReply))
		if _, err := io.ReadFull(br, reply); err != nil || string(reply) != wantReply {
			t.Fatalf("SET/GET %s: %v, reply %q", key, err, reply)
		}
	}
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	fams, err := obs.ParseExposition(body)
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	f := fams["flasks_wire_encode_bytes_total"]
	if f == nil || len(f.Samples) != 1 {
		t.Fatalf("flasks_wire_encode_bytes_total missing from /metrics: %+v", f)
	}
	if encoded := f.Samples[0].Value; encoded >= float64(len(value)) {
		t.Errorf("a lone node encoded %v bytes for the wire while its gateway served 100 SET/GET of %d B: the gateway's client is on a socket",
			encoded, len(value))
	}
}
