package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/frames.golden from the current encoder")

const goldenPath = "testdata/frames.golden"

// TestGoldenFrames pins the binary frame layout byte for byte. A
// mismatch here means the wire format changed: that breaks rolling
// upgrades and requires a new frame version byte, not a golden-file
// update. Only regenerate (go test -run Golden -update) when fixtures
// were deliberately extended.
func TestGoldenFrames(t *testing.T) {
	codec := BinaryCodec()
	if *updateGolden {
		var out bytes.Buffer
		fmt.Fprintln(&out, "# Binary wire frames of the codec_test fixtures, hex-encoded.")
		fmt.Fprintln(&out, "# Format: <message name>: <frame hex>. Regenerate: go test -run Golden -update")
		for _, env := range fixtures() {
			frame, err := codec.Encode(nil, &env)
			if err != nil {
				t.Fatal(err)
			}
			kind, _ := KindOf(env.Msg)
			fmt.Fprintf(&out, "%s: %s\n", specOfKind(kind).Name, hex.EncodeToString(frame))
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (generate with -update): %v", err)
	}
	defer f.Close()

	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hexFrame, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		golden[name] = hexFrame
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	seen := make(map[string]bool)
	for _, env := range fixtures() {
		kind, _ := KindOf(env.Msg)
		name := specOfKind(kind).Name
		seen[name] = true
		frame, err := codec.Encode(nil, &env)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: no golden frame (new message? regenerate with -update)", name)
			continue
		}
		if got := hex.EncodeToString(frame); got != want {
			t.Errorf("%s: encoding drifted from golden frame\n got  %s\n want %s", name, got, want)
		}
		// The stored frame must also still decode to the fixture: the
		// other half of the compatibility contract.
		raw, err := hex.DecodeString(want)
		if err != nil {
			t.Fatalf("%s: bad golden hex: %v", name, err)
		}
		dec, err := codec.Decode(raw)
		if err != nil {
			t.Errorf("%s: golden frame no longer decodes: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(&env, dec) {
			t.Errorf("%s: golden frame decodes to %+v, want %+v", name, dec, env)
		}
	}
	for name := range golden {
		if !seen[name] {
			t.Errorf("golden frame %s has no fixture (a retired kind's frame belongs in retiredFrames)", name)
		}
	}
}
