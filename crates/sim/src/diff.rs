//! Memory-image diffing for verification failure reports.
//!
//! When a hardware run disagrees with the reference, a raw byte-array
//! mismatch is useless for debugging; this helper locates and formats the
//! differing words.

use crate::mem::SimMemory;
use std::fmt::Write as _;

/// One differing 32-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordDiff {
    /// Word-aligned address.
    pub addr: u32,
    /// Value in the left (e.g. hardware) image.
    pub left: u32,
    /// Value in the right (e.g. reference) image.
    pub right: u32,
}

/// Compare two memory images word by word; returns up to `limit` diffs.
///
/// Only the words both images hold are compared; a caller that cares about
/// a size difference checks sizes first.
#[must_use]
pub fn diff_memories(left: &SimMemory, right: &SimMemory, limit: usize) -> Vec<WordDiff> {
    let mut out = Vec::new();
    let n = left.size().min(right.size()) / 4;
    for w in 0..n {
        let addr = w * 4;
        let l = left.read_i32(addr) as u32;
        let r = right.read_i32(addr) as u32;
        if l != r {
            out.push(WordDiff { addr, left: l, right: r });
            if out.len() >= limit {
                break;
            }
        }
    }
    out
}

/// Render diffs as a compact report (first `limit` words).
#[must_use]
pub fn render_diffs(diffs: &[WordDiff], total_hint: Option<usize>) -> String {
    if diffs.is_empty() {
        return "memory images identical".to_string();
    }
    let mut out = String::new();
    let _ = writeln!(out, "{} differing word(s):", total_hint.unwrap_or(diffs.len()));
    for d in diffs {
        let _ =
            writeln!(out, "  [{:#010x}] left {:#010x} vs right {:#010x}", d.addr, d.left, d.right);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_images_have_no_diffs() {
        let m = SimMemory::new(1024);
        assert!(diff_memories(&m, &m.clone(), 8).is_empty());
        assert_eq!(render_diffs(&[], None), "memory images identical");
    }

    #[test]
    fn reports_addresses_and_values() {
        let mut a = SimMemory::new(1024);
        let mut b = a.clone();
        let p = a.alloc(16, 4);
        let _ = b.alloc(16, 4);
        a.write_i32(p + 4, 7);
        b.write_i32(p + 4, 9);
        let diffs = diff_memories(&a, &b, 8);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].addr, p + 4);
        assert_eq!(diffs[0].left, 7);
        assert_eq!(diffs[0].right, 9);
        let text = render_diffs(&diffs, None);
        assert!(text.contains("0x00000007"));
    }

    #[test]
    fn limit_caps_the_report() {
        let mut a = SimMemory::new(1024);
        let b = a.clone();
        let p = a.alloc(64, 4);
        for i in 0..10 {
            a.write_i32(p + 4 * i, i as i32 + 1);
        }
        let diffs = diff_memories(&a, &b, 4);
        assert_eq!(diffs.len(), 4);
    }

    #[test]
    fn differently_sized_images_compare_their_common_words() {
        let mut a = SimMemory::new(1024);
        let b = SimMemory::new(2048);
        assert!(diff_memories(&a, &b, 8).is_empty());
        a.write_i32(1020, 5);
        assert_eq!(diff_memories(&b, &a, 8), vec![WordDiff { addr: 1020, left: 0, right: 5 }]);
    }
}
