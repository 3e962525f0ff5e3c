package textsim

import (
	"math"
	"slices"
)

// EmbedConfig parameterises package embedding. The defaults mirror §III-B:
// 512-token snippets; MaxSnippets bounds the concatenated vector so every
// package embeds to the same length (shorter packages are zero-padded, a
// fixed-shape analogue of the paper's concatenation).
type EmbedConfig struct {
	SnippetTokens int // tokens per snippet (paper: 512)
	SnippetDim    int // hashed dimensions per snippet vector
	MaxSnippets   int // snippets concatenated per package
}

// DefaultEmbedConfig returns the configuration used across the repository.
func DefaultEmbedConfig() EmbedConfig {
	return EmbedConfig{SnippetTokens: 512, SnippetDim: 64, MaxSnippets: 4}
}

// Dim returns the package-vector dimensionality.
func (c EmbedConfig) Dim() int { return c.SnippetDim * c.MaxSnippets }

// Embedder converts source code into fixed-length vectors.
type Embedder struct {
	cfg EmbedConfig
}

// NewEmbedder returns an embedder; zero-valued config fields fall back to
// defaults.
func NewEmbedder(cfg EmbedConfig) *Embedder {
	def := DefaultEmbedConfig()
	if cfg.SnippetTokens <= 0 {
		cfg.SnippetTokens = def.SnippetTokens
	}
	if cfg.SnippetDim <= 0 {
		cfg.SnippetDim = def.SnippetDim
	}
	if cfg.MaxSnippets <= 0 {
		cfg.MaxSnippets = def.MaxSnippets
	}
	return &Embedder{cfg: cfg}
}

// Config returns the effective configuration.
func (e *Embedder) Config() EmbedConfig { return e.cfg }

// EmbedSource embeds merged package source into an L2-normalised vector of
// length Config().Dim().
func (e *Embedder) EmbedSource(src string) []float64 {
	return e.EmbedTokens(Tokenize(src))
}

// TrimZeroTail drops a vector's trailing zero dimensions. Packages shorter
// than SnippetTokens×MaxSnippets leave their tail snippet slots at exactly
// zero (the fixed-shape padding), so dot products against the trimmed vector
// are mathematically unchanged while the O(n·k·d) clustering kernels scan
// only the occupied prefix — on real corpora most artifacts fill one snippet
// slot, a ~4× kernel saving. Dot, centroid accumulation and the silhouette
// scans all accept mixed-length vectors.
func TrimZeroTail(v []float64) []float64 {
	n := len(v)
	for n > 0 && v[n-1] == 0 {
		n--
	}
	return v[:n]
}

// EmbedTokens embeds a pre-tokenised stream. Only informative tokens
// contribute (punctuation, one/two-character fragments and language keywords
// carry no code-base identity and would otherwise dominate the vectors), and
// term frequencies are sublinear (sqrt) so a token repeated hundreds of times
// cannot swamp a snippet — both standard code-retrieval weightings that stand
// in for the contextual weighting CodeBERT learns.
//
// Invariant: the returned vector is L2-normalised (or all-zero when no token
// is informative), so downstream similarity code may use Dot in place of
// Cosine without renormalising.
func (e *Embedder) EmbedTokens(tokens []string) []float64 {
	return e.EmbedHashed(HashTokens(tokens, nil))
}

// EmbedHashed embeds a stream already passed through HashTokens, the
// allocation-lean path for callers that share one hashed stream between
// embedding and SimHash fingerprinting. The output satisfies the same
// L2-normalisation invariant as EmbedTokens.
func (e *Embedder) EmbedHashed(hashed []TokenHash) []float64 {
	vec := make([]float64, e.cfg.Dim())
	scratch := make([]uint64, 0, min(len(hashed), e.cfg.SnippetTokens))
	for lo := 0; lo < len(hashed); lo += e.cfg.SnippetTokens {
		si := lo / e.cfg.SnippetTokens
		if si >= e.cfg.MaxSnippets {
			// Overflow snippets fold into the last slot so very large
			// packages still contribute all their content.
			si = e.cfg.MaxSnippets - 1
		}
		base := si * e.cfg.SnippetDim
		hi := min(lo+e.cfg.SnippetTokens, len(hashed))
		scratch = scratch[:0]
		for _, th := range hashed[lo:hi] {
			if !th.Skip {
				scratch = append(scratch, th.Hash)
			}
		}
		// Sorting fixes the floating-point accumulation order (map-based
		// counting would add colliding dimensions in random order, making
		// embeddings differ in the last bit between runs) and counts each
		// distinct token as one run.
		slices.Sort(scratch)
		for s := 0; s < len(scratch); {
			hv := scratch[s]
			n := s + 1
			for n < len(scratch) && scratch[n] == hv {
				n++
			}
			idx := int(hv % uint64(e.cfg.SnippetDim))
			sign := 1.0
			if hv&(1<<63) != 0 {
				sign = -1.0 // signed hashing reduces collision bias
			}
			vec[base+idx] += sign * math.Sqrt(float64(n-s))
			s = n
		}
	}
	normalize(vec)
	return vec
}

// codeStopwords are language keywords and ubiquitous identifiers shared by
// virtually every package; they carry no code-base identity.
var codeStopwords = map[string]bool{
	"def": true, "return": true, "import": true, "from": true, "const": true,
	"let": true, "var": true, "function": true, "require": true, "class": true,
	"if": true, "else": true, "elif": true, "for": true, "while": true,
	"in": true, "of": true, "new": true, "this": true, "self": true,
	"end": true, "do": true, "not": true, "and": true, "or": true,
	"true": true, "false": true, "none": true, "null": true, "nil": true,
	"print": true, "pass": true, "try": true, "except": true, "catch": true,
	"raise": true, "throw": true, "async": true, "await": true, "module": true,
	"exports": true, "lambda": true, "yield": true, "with": true, "as": true,
	"loop": true, "puts": true, "https": true, "http": true, "com": true,
	"org": true, "www": true,
}

// Informative reports whether a normalised token should contribute to
// embeddings and fingerprints.
func Informative(norm string) bool {
	if len(norm) < 3 {
		return false
	}
	if codeStopwords[norm] {
		return false
	}
	digits := 0
	for _, r := range norm {
		if r >= '0' && r <= '9' {
			digits++
		}
	}
	// Pure numbers (version fragments, line counts) are noise; mixed
	// alphanumerics (identifiers, IPs, base64 chunks) are signal.
	return digits < len(norm)
}

func normalize(v []float64) {
	var ss float64
	for _, x := range v {
		ss += x * x
	}
	if ss == 0 {
		return
	}
	inv := 1 / math.Sqrt(ss)
	for i := range v {
		v[i] *= inv
	}
}

// Cosine returns the cosine similarity of two equal-length vectors,
// dividing through both norms. Hot paths that hold the EmbedTokens
// L2-normalisation invariant (clustering, silhouette, K-Means) call Dot
// directly and skip the two norm passes; Cosine remains the safe entry
// point for vectors of unknown provenance.
func Cosine(a, b []float64) float64 {
	dot := Dot(a, b)
	var na, nb float64
	for _, x := range a {
		na += x * x
	}
	for _, x := range b {
		nb += x * x
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// SimHash computes a 64-bit locality-sensitive fingerprint of the token
// stream. Near-identical code bases produce fingerprints within a few bits
// of each other, which the banded LSH in cluster.go exploits.
func SimHash(tokens []string) uint64 {
	return SimHashHashed(HashTokens(tokens, nil))
}

// SimHashHashed fingerprints a stream already passed through HashTokens,
// sharing the normalize+hash pass with EmbedHashed. The per-bit update is
// branchless (2·bit−1 ∈ {−1,+1}): hash bits are uniform, so a conditional
// here mispredicts half the time on the hottest loop in fingerprinting.
func SimHashHashed(hashed []TokenHash) uint64 {
	var counts [64]int
	for _, th := range hashed {
		if th.Skip {
			continue
		}
		hv := th.Hash
		for b := 0; b < 64; b++ {
			counts[b] += int((hv>>uint(b))&1)*2 - 1
		}
	}
	var out uint64
	for b := 0; b < 64; b++ {
		if counts[b] > 0 {
			out |= 1 << uint(b)
		}
	}
	return out
}
