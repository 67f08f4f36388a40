package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// figureDigests pins, per figure, the SHA-256 of the report's Fprint bytes
// followed by the exact float64 bits of every metric (in sorted key order),
// on the shared test suite (20M ops, scale 10, hash seed 42). A refactor
// that moves any table cell, note or metric bit fails here; a change that
// means to move a number re-pins it and says why.
var figureDigests = map[string]string{
	"fig2":            "a61bf8a985d868560d87545c1345589f46658cb0b338cf343ce73eb43d95d24f",
	"fig3":            "78a1711c91e179db56b8adf4f80b8d01f903de2bf897958a1e0cbfbbda6709f0",
	"fig7":            "19fc63acb780e1d947b9562bccda36f45f2a8433c719af1d071b3a33f9cf4312",
	"fig8":            "171aaa1a53c8c7ac4ea2041a08cc22f25d639f099aa7f77ed82e7a510e30f35d",
	"fig9":            "b1d5d070e568b0f63da1a8d97ed1399e0731bf06530b445ca25c3cb61e9d801e",
	"fig10":           "681630088f6891e7d283d47fe71a0519a4dfc93073fab0e97b1146cbb7d1bfbb",
	"fig11":           "2d5d82bd953a6b71c8dfc80112ed263cd087bfebc648da5391a961fbf08d0e19",
	"fig12":           "07b6d700e1a2014955570f1359a98e1269f8f98d590776ca0022b0546a7f7bb3",
	"fig13":           "f97fda28a6f1f104cda067028b10d4abf5813c0ff317660d75625872fdef966a",
	"ablation":        "71a9959c4c59a26433b387b2a3f4917ee9ff8ea3fb4a5de79d15dd7a59c38c0e",
	"characteristics": "c1f220ee36aa80627db5458084d6fa68649be8e4dc52b4759ad084ce73829625",
	"coverage":        "fc56afd9d9a1eddba1194bd42fea73768162b8a3382d55c3a4bf4cbe50f328a5",
	"extensions":      "20e68b0212e93f90a02372eda777a0cb4a2271168762cbae18f4f94db62c9fce",
	"frontier":        "4ef48896c9c190b76a4c5ca68aa1483b7bf58325d056a177dca44580897c1006",
}

func TestGoldenFigureDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure on the shared suite")
	}
	if raceEnabled {
		t.Skip("the hash-width ablation records twelve 20M-op profiles; minutes under the race detector")
	}
	s := testSuite(t)
	for _, id := range FigureIDs() {
		t.Run(id, func(t *testing.T) {
			r, err := Run(s, id)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := figureDigest(r), figureDigests[id]; got != want {
				t.Errorf("digest %s, golden %s", got, want)
			}
		})
	}
}

// figureDigest hashes a report's rendering and its metric bits.
func figureDigest(r *Report) string {
	var buf bytes.Buffer
	r.Fprint(&buf)
	h := sha256.New()
	h.Write(buf.Bytes())
	var bits [8]byte
	for _, k := range sortedKeys(r.Metrics) {
		h.Write([]byte(k))
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(r.Metrics[k]))
		h.Write(bits[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
