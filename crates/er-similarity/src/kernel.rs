//! Character kernels shared by every edit, sequence and Jaro metric.
//!
//! * Levenshtein distance runs Myers' bit-vector algorithm in Hyyrö's
//!   formulation, one 64-bit word per 64 pattern characters, with the
//!   horizontal deltas carried from word to word (Myers 1999, §4 blocks).
//! * LCS length runs the Allison–Dix / Hyyrö bit-vector recurrence
//!   `S' = (S + (S & M)) | (S - (S & M))`, carrying the addition across words.
//! * Jaro and Jaro–Winkler run the textbook greedy window match, finding
//!   each match in the second string's masks and keeping match flags as bits.
//!
//! The bit-vector kernels return exactly the integer of the character
//! dynamic program, and Jaro makes exactly the matches of the window scan.
//! All of them accept any `char`: ASCII characters index the match-mask
//! table directly, every other character of the pattern gets a row in a
//! short side list.

/// Number of directly indexed (ASCII) characters in the match-mask table.
const ASCII: usize = 128;

/// Match masks of one pattern: bit `i % 64` of word `i / 64` of a
/// character's row is set when the pattern holds that character at `i`.
#[derive(Debug, Default)]
struct Masks {
    words: usize,
    /// Row of ASCII character `c` at `c * words`.  All zero between uses.
    ascii: Vec<u64>,
    /// Non-ASCII pattern characters; the row of `other[k]` is at
    /// `k * words` in `other_rows`.
    other: Vec<char>,
    other_rows: Vec<u64>,
    /// The row of a character absent from the pattern.
    zero: Vec<u64>,
}

impl Masks {
    fn set(&mut self, pattern: &[char]) {
        let words = pattern.len().div_ceil(64);
        self.words = words;
        // The table is all zero here, so resizing keeps it all zero.
        self.ascii.resize(ASCII * words, 0);
        self.zero.resize(words, 0);
        self.other.clear();
        self.other_rows.clear();
        for (i, &c) in pattern.iter().enumerate() {
            let bit = 1u64 << (i % 64);
            if c.is_ascii() {
                self.ascii[c as usize * words + i / 64] |= bit;
            } else {
                let k = match self.other.iter().position(|&o| o == c) {
                    Some(k) => k,
                    None => {
                        self.other.push(c);
                        self.other_rows.resize(self.other.len() * words, 0);
                        self.other.len() - 1
                    }
                };
                self.other_rows[k * words + i / 64] |= bit;
            }
        }
    }

    /// Zeroes the rows `set(pattern)` wrote.
    fn clear(&mut self, pattern: &[char]) {
        let words = self.words;
        for (i, &c) in pattern.iter().enumerate() {
            if c.is_ascii() {
                self.ascii[c as usize * words + i / 64] = 0;
            }
        }
    }

    fn row(&self, c: char) -> &[u64] {
        let words = self.words;
        if c.is_ascii() {
            return &self.ascii[c as usize * words..][..words];
        }
        match self.other.iter().position(|&o| o == c) {
            Some(k) => &self.other_rows[k * words..][..words],
            None => &self.zero,
        }
    }
}

/// Reusable buffers of the character kernels.  One instance serves any
/// number of calls; evaluation loops keep one across pairs.
#[derive(Debug, Default)]
pub(crate) struct Kernels {
    masks: Masks,
    /// Per-word state: the vertical deltas `VP`/`VN` of Levenshtein, the
    /// `S` vector of LCS in `vp`, or the match flags of Jaro.
    vp: Vec<u64>,
    vn: Vec<u64>,
}

impl Kernels {
    /// Levenshtein distance between two character sequences.
    pub(crate) fn levenshtein(&mut self, a: &[char], b: &[char]) -> usize {
        let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        if pattern.is_empty() {
            return text.len();
        }
        self.masks.set(pattern);
        let words = self.masks.words;
        self.vp.clear();
        self.vp.resize(words, !0);
        self.vn.clear();
        self.vn.resize(words, 0);
        let last = 1u64 << ((pattern.len() - 1) % 64);
        let mut dist = pattern.len();
        for &c in text {
            let eq = self.masks.row(c);
            // Horizontal deltas entering the bottom row: +1 on row 0.
            let (mut hp_carry, mut hn_carry) = (1u64, 0u64);
            for (w, ((vp, vn), &eq)) in self.vp.iter_mut().zip(self.vn.iter_mut()).zip(eq).enumerate() {
                let x = eq | hn_carry;
                let d0 = ((x & *vp).wrapping_add(*vp) ^ *vp) | x | *vn;
                let hp = *vn | !(d0 | *vp);
                let hn = d0 & *vp;
                // The deltas leaving this word: its top bit, or the
                // pattern's last row in the last word.
                let top = if w + 1 < words { 1 << 63 } else { last };
                let (hp_in, hn_in) = (hp_carry, hn_carry);
                hp_carry = u64::from(hp & top != 0);
                hn_carry = u64::from(hn & top != 0);
                let hp = (hp << 1) | hp_in;
                let hn = (hn << 1) | hn_in;
                *vp = hn | !(d0 | hp);
                *vn = hp & d0;
            }
            dist = dist + hp_carry as usize - hn_carry as usize;
        }
        self.masks.clear(pattern);
        dist
    }

    /// Length of the longest common subsequence of two character sequences.
    pub(crate) fn lcs_length(&mut self, a: &[char], b: &[char]) -> usize {
        let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        if pattern.is_empty() {
            return 0;
        }
        self.masks.set(pattern);
        let words = self.masks.words;
        self.vp.clear();
        self.vp.resize(words, !0);
        for &c in text {
            let m = self.masks.row(c);
            let mut carry = false;
            for (s, &mw) in self.vp.iter_mut().zip(m) {
                let u = *s & mw;
                let (sum, c1) = s.overflowing_add(u);
                let (sum, c2) = sum.overflowing_add(u64::from(carry));
                carry = c1 | c2;
                // `u` is a subset of `s`, so `s - u` never borrows.
                *s = sum | (*s - u);
            }
        }
        self.masks.clear(pattern);
        // Every zero bit of S below the pattern length is one LCS character.
        let tail = pattern.len() % 64;
        self.vp
            .iter()
            .enumerate()
            .map(|(w, &s)| {
                let valid = if w + 1 == words && tail != 0 {
                    (1u64 << tail) - 1
                } else {
                    !0
                };
                (!s & valid).count_ones() as usize
            })
            .sum()
    }

    /// Jaro similarity in `[0, 1]`.
    ///
    /// Each character of `a`, in order, takes the first unmatched equal
    /// character of `b` inside the match window; the masks of `b` find it
    /// with a few word operations instead of a scan of the window.
    pub(crate) fn jaro(&mut self, a: &[char], b: &[char]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let Kernels {
            masks,
            vp: b_matched,
            vn: a_matched,
        } = self;
        masks.set(b);
        b_matched.clear();
        b_matched.resize(masks.words, 0);
        a_matched.clear();
        a_matched.resize(a.len().div_ceil(64), 0);
        let mut matches = 0usize;
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            if lo >= hi {
                continue;
            }
            let row = masks.row(ca);
            for w in lo / 64..(hi - 1) / 64 + 1 {
                let in_window = bit_range(lo.max(64 * w) - 64 * w, hi.min(64 * w + 64) - 64 * w);
                let free = row[w] & !b_matched[w] & in_window;
                if free != 0 {
                    b_matched[w] |= free & free.wrapping_neg();
                    a_matched[i / 64] |= 1 << (i % 64);
                    matches += 1;
                    break;
                }
            }
        }
        masks.clear(b);
        if matches == 0 {
            return 0.0;
        }
        // Transpositions: matched characters of `a` and of `b`, paired in order.
        let mut b_matches = set_bits(b_matched);
        let half_transposed = set_bits(a_matched)
            .filter(|&i| b_matches.next().map(|j| b[j]) != Some(a[i]))
            .count();
        let transpositions = half_transposed / 2;
        let m = matches as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
    }

    /// Jaro–Winkler similarity: prefix scale 0.1, prefix cap 4 characters.
    pub(crate) fn jaro_winkler(&mut self, a: &[char], b: &[char]) -> f64 {
        let j = self.jaro(a, b);
        let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64;
        j + prefix * 0.1 * (1.0 - j)
    }
}

/// Bits `start..end` of a word, `start < end <= 64`.
fn bit_range(start: usize, end: usize) -> u64 {
    let below_end = if end == 64 { !0 } else { (1u64 << end) - 1 };
    below_end & (!0u64 << start)
}

/// Indices of the set bits of a word vector, in increasing order.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |&rest| Some(rest & rest.wrapping_sub(1)))
            .take_while(|&rest| rest != 0)
            .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
    })
}

/// Length of the longest common contiguous run of two character sequences.
pub(crate) fn longest_common_substring(a: &[char], b: &[char]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut prev = vec![0usize; b.len() + 1];
    let mut cur = vec![0usize; b.len() + 1];
    let mut best = 0usize;
    for &ca in a {
        for (j, &cb) in b.iter().enumerate() {
            cur[j + 1] = if ca == cb { prev[j] + 1 } else { 0 };
            best = best.max(cur[j + 1]);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    best
}

/// The characters of a string.
pub(crate) fn chars(s: &str) -> Vec<char> {
    s.chars().collect()
}
