//! Result checks: every value the benchmark writes encodes its key, so any
//! value read back can be validated without knowing which write produced
//! it; scans are checked for order and bounds; the single-client serve
//! workloads are checked reply by reply against a sequential model.

use crate::gen::{Kind, Op, KEY_RANGE};

/// `key << 24 | thread << 20 | seq` — self-validating and never the
/// program's reserved tombstone value.
#[inline]
pub fn encode(key: u64, thread: u64, seq: u64) -> u64 {
    key << 24 | (thread & 0xf) << 20 | (seq & 0xf_ffff)
}

#[inline]
pub fn decodes_to(key: u64, value: u64) -> bool {
    value >> 24 == key
}

/// A point reply is wrong when it carries a value that is not `key`'s.
#[inline]
pub fn point_reply_ok(key: u64, reply: Option<u64>) -> bool {
    reply.is_none_or(|v| decodes_to(key, v))
}

/// A scan reply must be strictly ascending, start at or above `from`, be
/// no longer than asked, and hold only values that decode to their keys.
pub fn scan_ok(from: u64, asked: usize, out: &[(u64, u64)]) -> bool {
    out.len() <= asked
        && out.first().is_none_or(|&(k, _)| k >= from)
        && out.windows(2).all(|w| w[0].0 < w[1].0)
        && out.iter().all(|&(k, v)| decodes_to(k, v))
}

/// Failures in a full dump of the map: records out of order or duplicated,
/// and values that do not decode.
pub fn dump_failures(records: &[(u64, u64)]) -> u64 {
    let disorder = records.windows(2).filter(|w| w[0].0 >= w[1].0).count();
    let undecodable = records.iter().filter(|&&(k, v)| !decodes_to(k, v)).count();
    (disorder + undecodable) as u64
}

/// Sequential model of the map for the single-client serve workloads: one
/// client submits and the server keeps per-key order, so every reply must
/// equal the model applied in submission order.
pub struct Shadow {
    values: Vec<u64>,
}

const ABSENT: u64 = u64::MAX;

impl Shadow {
    /// A model holding `preloaded(k)` for every key below `dense`.
    pub fn preloaded(dense: u64, value_of: impl Fn(u64) -> u64) -> Self {
        let mut values = vec![ABSENT; KEY_RANGE as usize];
        for k in 0..dense {
            values[k as usize] = value_of(k);
        }
        Shadow { values }
    }

    /// Apply a point op; returns the reply the server must give.
    #[inline]
    pub fn apply(&mut self, op: Op, new_value: u64) -> Option<u64> {
        let slot = &mut self.values[op.key() as usize];
        let before = (*slot != ABSENT).then_some(*slot);
        match op.kind() {
            Kind::Get => {}
            Kind::Put => *slot = new_value,
            Kind::Delete => *slot = ABSENT,
            Kind::Scan => unreachable!("serve traffic has no scans"),
        }
        before
    }

    /// Live records, ascending — what a full scan must return.
    pub fn records(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != ABSENT)
            .map(|(k, &v)| (k as u64, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_decode_only_to_their_key() {
        let v = encode(999_999, 15, 0xf_ffff);
        assert!(decodes_to(999_999, v) && !decodes_to(999_998, v));
        assert_ne!(v, u64::MAX);
        assert!(
            decodes_to(7, encode(7, 31, 1 << 21)),
            "thread and seq wrap inside their fields"
        );
    }

    #[test]
    fn scan_checks_catch_each_violation() {
        let rec = |k| (k, encode(k, 0, 0));
        assert!(scan_ok(5, 3, &[rec(5), rec(7), rec(9)]));
        assert!(scan_ok(5, 3, &[]));
        assert!(
            !scan_ok(5, 2, &[rec(5), rec(7), rec(9)]),
            "longer than asked"
        );
        assert!(!scan_ok(6, 3, &[rec(5), rec(7)]), "starts below from");
        assert!(!scan_ok(5, 3, &[rec(7), rec(5)]), "unsorted");
        assert!(!scan_ok(5, 3, &[rec(5), rec(5)]), "duplicate");
        assert!(!scan_ok(5, 3, &[(5, encode(6, 0, 0))]), "foreign value");
        assert_eq!(dump_failures(&[rec(1), rec(1), (3, 0)]), 2);
    }
}
