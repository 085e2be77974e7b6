//! The kernel-name table.
//!
//! A kernel's name is built from three static parts: the emitter's
//! prefix, the caller's op label or GEMM flavor, and a variant or
//! size-bucket suffix. An iteration launches thousands of kernels but
//! only a few dozen names, so [`kernel_name`] joins each distinct triple
//! once, keeps the result for the rest of the process and hands out that
//! `&'static str` from then on. Emitting a kernel therefore never formats
//! or allocates after its name's first use.
//!
//! There is one table per process, shared by every thread and read
//! without a lock: a fixed array of write-once slots, probed from a hash
//! of the parts' addresses. The parts are themselves `&'static str`s, so
//! the triples a program can form are bounded by its string constants;
//! the workspace's emitters can form fewer than 200 of them, against
//! [`SLOTS`] slots.
//!
//! One text can be formed from parts at several addresses: the same
//! literal written in two crates, or two codegen units, need not share
//! storage. Writing a new slot is rare, so it takes a lock and reuses the
//! string of any slot that already holds the same text. Each name text
//! therefore has exactly one `&'static str`, and its address identifies
//! it.

use std::sync::{Mutex, OnceLock, PoisonError};

/// Capacity of the table, in distinct triples.
const SLOTS: usize = 1024;

/// A triple of parts by identity: each part's address and length.
type Key = [usize; 6];

/// One joined name and the parts it was joined from.
struct Entry {
    key: Key,
    name: &'static str,
}

static TABLE: [OnceLock<Entry>; SLOTS] = [const { OnceLock::new() }; SLOTS];

/// Held while a slot is written, so that no two slots leak the same text.
static WRITES: Mutex<()> = Mutex::new(());

/// Fold one part's address and length into the hash `h`.
fn mix(h: u64, part: &str) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let h = (h.rotate_left(5) ^ part.as_ptr() as u64).wrapping_mul(K);
    (h.rotate_left(5) ^ part.len() as u64).wrapping_mul(K)
}

/// The name `{prefix}{label}_{suffix}`, e.g.
/// `kernel_name("ew_", "tanh", "v4")` is `"ew_tanh_v4"`.
///
/// The first call for a triple of parts joins the string and keeps it
/// for the life of the process, reusing the string of another triple
/// that joined to the same text; every later call with the same parts
/// returns that same `&'static str` without allocating or locking. "The
/// same parts" means the same string constants, compared by address and
/// length. So a name text has one stable pointer, which can serve as an
/// identity key. Once every slot is taken, which no emitter in this
/// workspace comes near, a new triple gets a fresh copy on each call.
///
/// ```
/// use gpu_sim::kernel_name;
///
/// let (prefix, op, suffix) = ("reduce_", "sum", "1p");
/// let a = kernel_name(prefix, op, suffix);
/// let b = kernel_name(prefix, op, suffix);
/// assert_eq!(a, "reduce_sum_1p");
/// assert!(std::ptr::eq(a, b));
/// ```
pub fn kernel_name(
    prefix: &'static str,
    label: &'static str,
    suffix: &'static str,
) -> &'static str {
    let key: Key = [
        prefix.as_ptr() as usize,
        prefix.len(),
        label.as_ptr() as usize,
        label.len(),
        suffix.as_ptr() as usize,
        suffix.len(),
    ];
    let h = mix(mix(mix(0, prefix), label), suffix);
    let text = || format!("{prefix}{label}_{suffix}");
    let mut slot = (h >> 32) as usize % SLOTS;
    for _ in 0..SLOTS {
        let Some(cell) = TABLE.get(slot) else {
            break;
        };
        let entry = match cell.get() {
            Some(entry) => entry,
            None => {
                // A slot is written whole or not at all, so a writer that
                // panicked left the table valid and the lock can be taken.
                let _writing = WRITES.lock().unwrap_or_else(PoisonError::into_inner);
                cell.get_or_init(|| Entry {
                    key,
                    name: intern(text()),
                })
            }
        };
        if entry.key == key {
            return entry.name;
        }
        slot = (slot + 1) % SLOTS;
    }
    Box::leak(text().into_boxed_str())
}

/// `text` as a `&'static str`: the name of a written slot that already
/// holds the same text, or else `text` leaked. Called with [`WRITES`]
/// held, so no slot is written meanwhile.
fn intern(text: String) -> &'static str {
    TABLE
        .iter()
        .filter_map(OnceLock::get)
        .map(|entry| entry.name)
        .find(|name| **name == text)
        .unwrap_or_else(|| Box::leak(text.into_boxed_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_parts_share_one_name() {
        let (prefix, flavor, label) = ("gemm_", "nn", "64x64x16");
        let a = kernel_name(prefix, flavor, label);
        let b = kernel_name(prefix, flavor, label);
        assert_eq!(a, "gemm_nn_64x64x16");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn threads_racing_on_a_new_name_all_get_the_same_one() {
        let start = std::sync::Barrier::new(4);
        let names: Vec<&'static str> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        kernel_name("reduce_", "race", "2p")
                    })
                })
                .collect();
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        });
        assert_eq!(names.len(), 4);
        assert_eq!(names[0], "reduce_race_2p");
        assert!(names.iter().all(|n| std::ptr::eq(*n, names[0])));
    }

    #[test]
    fn one_text_from_parts_at_two_addresses_is_one_name() {
        let owned = String::from("nt");
        let elsewhere: &'static str = Box::leak(owned.into_boxed_str());
        let a = kernel_name("gemm_", "nt", "twice");
        let b = kernel_name("gemm_", elsewhere, "twice");
        assert!(!std::ptr::eq("nt", elsewhere));
        assert_eq!(b, "gemm_nt_twice");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn an_empty_prefix_joins_label_and_suffix() {
        assert_eq!(kernel_name("", "relu", "bwd"), "relu_bwd");
    }
}
