//! The hardware backend ([`Backend::Rtm`]): real Intel RTM (TSX) lock
//! elision behind the same staged executor as the other two.
//!
//! `XBEGIN`/`XEND`/`XABORT` are issued via their raw byte encodings
//! (stable Rust has no RTM intrinsics, and the encodings need no target
//! feature), so this module compiles wherever the target is x86-64 and is
//! *entered* only where CPUID reports RTM ([`hw_rtm_available`], asked
//! once, in [`Runtime::new`](crate::runtime::Runtime::new)) — executing
//! `XBEGIN` on a CPU without TSX raises `#UD`. Selection is by what the
//! code can observe, not by a build option.
//!
//! Inside a hardware transaction no software episode is open and the
//! cells are accessed with plain atomic loads and stores: conflict
//! detection, buffering and rollback come from the silicon. Everything
//! *around* the transaction — the fallback cell, direct-write
//! publication, the optimistic-snapshot clock — is the TL2 backend's
//! ([`crate::tl2`]); what this module adds to it is the attempt, the
//! translation of the abort status word (Intel SDM vol. 1 §16.3.5) into
//! the engine's [`AbortCause`] taxonomy, and the clock bump a writing
//! transaction makes inside itself.
//!
//! [`Backend::Rtm`]: crate::runtime::Backend::Rtm

use std::sync::atomic::{AtomicU64, Ordering};

use euno_metrics::AbortClass;

use crate::abort::{AbortCause, ConflictInfo, TxResult};
use crate::ctx::{ThreadCtx, Tx};
use crate::line::LineId;
use crate::runtime::Backend;
use crate::word::TxCell;

/// Does this CPU (and kernel) expose RTM? `false` off x86-64.
pub fn hw_rtm_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("rtm")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod insn {
    use std::arch::asm;

    /// `_XBEGIN_STARTED`: the value "returned" by a successfully started
    /// transaction (EAX is left untouched, and we preload it with all-ones).
    pub const XBEGIN_STARTED: u32 = u32::MAX;

    /// Start a hardware transaction. Returns [`XBEGIN_STARTED`] when
    /// speculation begins; on abort, control returns *here* with the status
    /// word instead.
    ///
    /// # Safety
    /// The CPU must support RTM ([`super::hw_rtm_available`]); `#UD`
    /// otherwise.
    #[inline(always)]
    pub unsafe fn xbegin() -> u32 {
        let mut ret: u32 = XBEGIN_STARTED;
        // xbegin rel32=0 → the abort handler is the next instruction.
        asm!(
            ".byte 0xc7, 0xf8, 0x00, 0x00, 0x00, 0x00",
            inout("eax") ret,
            options(nostack)
        );
        ret
    }

    /// Commit the current hardware transaction.
    ///
    /// # Safety
    /// Must be transactionally executing (`#GP` otherwise).
    #[inline(always)]
    pub unsafe fn xend() {
        asm!(".byte 0x0f, 0x01, 0xd5", options(nostack));
    }

    /// Abort the current transaction with code 0xff — the fallback
    /// subscription found the lock held.
    ///
    /// # Safety
    /// CPU must support RTM. Outside a transaction this is a no-op.
    #[inline(always)]
    pub unsafe fn xabort_ff() {
        asm!(".byte 0xc6, 0xf8, 0xff", options(nostack));
    }

    /// Abort the current transaction with code 0x01 — the executor's "body
    /// returned `Err`" code, distinct from the 0xff fallback-subscription
    /// abort so the classify stage can tell them apart.
    ///
    /// # Safety
    /// CPU must support RTM. Outside a transaction this is a no-op.
    #[inline(always)]
    pub unsafe fn xabort_01() {
        asm!(".byte 0xc6, 0xf8, 0x01", options(nostack));
    }
}

/// Abort-status bits (Intel SDM vol. 1 §16.3.5).
mod status {
    /// Set if the abort was caused by `XABORT imm8`.
    pub const EXPLICIT: u32 = 1 << 0;
    /// Set if another logical processor conflicted.
    pub const CONFLICT: u32 = 1 << 2;
    /// Set on read/write-set capacity overflow.
    pub const CAPACITY: u32 = 1 << 3;

    /// The `imm8` operand of the aborting `XABORT`.
    pub fn xabort_code(st: u32) -> u8 {
        (st >> 24) as u8
    }
}

/// Translate an RTM status word into the engine's abort taxonomy.
fn abort_cause(st: u32) -> AbortCause {
    if st & status::EXPLICIT != 0 {
        match status::xabort_code(st) {
            0xff => AbortCause::FallbackLocked,
            code => AbortCause::Explicit(code),
        }
    } else if st & status::CAPACITY != 0 {
        AbortCause::Capacity
    } else if st & status::CONFLICT != 0 {
        // Hardware says only *that* a line collided, not which one.
        AbortCause::Conflict(ConflictInfo {
            line: LineId(0),
            kind: AbortClass::UnclassifiedConflict,
            other_thread: None,
        })
    } else {
        AbortCause::Spurious
    }
}

/// Stage 1 of the executor, hardware flavour: run `body` inside a real RTM
/// transaction with the fallback lock `fb` subscribed (classic lock
/// elision). No software episode is opened — that is what makes
/// `tx_read`/`tx_write` degrade to [`ThreadCtx::rtm_read`] /
/// [`ThreadCtx::rtm_write`].
///
/// A body `Err` cannot return normally (the transaction's writes must be
/// rolled back), so it aborts with code 0x01; the fallback subscription
/// aborts with 0xff. Control for either lands back at `xbegin` with the
/// status word, which [`abort_cause`] translates.
#[cfg(target_arch = "x86_64")]
pub(crate) fn attempt<R>(
    ctx: &mut ThreadCtx,
    fb: &TxCell<u64>,
    body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>,
) -> Result<R, AbortCause> {
    debug_assert_eq!(ctx.runtime().backend(), Backend::Rtm);
    // Cleared outside the transaction; set inside it, an abort rolls the
    // flag back with everything else.
    ctx.hw_wrote = false;
    // SAFETY: `Backend::Rtm` survives `Runtime::new` only where
    // `hw_rtm_available()`; `xend`/`xabort` run only on the started path.
    let st = unsafe { insn::xbegin() };
    if st != insn::XBEGIN_STARTED {
        return Err(abort_cause(st));
    }
    // Subscribe: the lock word joins the read set, so a concurrent
    // fallback acquisition aborts us; if already held, bail now.
    if fb.raw().load(Ordering::Relaxed) != 0 {
        unsafe { insn::xabort_ff() };
    }
    match body(&mut Tx { ctx }) {
        Ok(v) => {
            if ctx.hw_wrote {
                // Writing commit: advance the TL2 clock *inside*
                // the transaction, so the bump publishes
                // atomically with the write set and episode-free
                // optimistic readers (`optimistic_validate`:
                // `seq == snap`) abort instead of accepting a
                // snapshot this commit landed in the middle of.
                // The seq word joins the hardware conflict set —
                // one extra line, the price of making elided
                // writers visible to snapshot validation.
                let seq = &ctx.runtime().seq;
                let s = seq.load(Ordering::Relaxed);
                seq.store(s + 1, Ordering::Relaxed);
            }
            unsafe { insn::xend() };
            Ok(v)
        }
        Err(_) => {
            unsafe { insn::xabort_01() };
            // Unreachable inside a transaction; defensive exit for
            // the no-RTM-in-flight case (xabort is a no-op there).
            Err(AbortCause::Explicit(1))
        }
    }
}

/// Off x86-64 [`Backend::Rtm`] never survives `Runtime::new`.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn attempt<R>(
    _: &mut ThreadCtx,
    _: &TxCell<u64>,
    _: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>,
) -> Result<R, AbortCause> {
    unreachable!("the RTM backend resolves to STM off x86-64")
}

impl ThreadCtx {
    /// `Tx::read` with no software episode open: the body is running
    /// inside a hardware transaction, and instrumentation would only bloat
    /// the hardware read set.
    ///
    /// `inline(always)`, here and on [`ThreadCtx::rtm_write`]: code that
    /// runs *only* inside hardware transactions can sit on a text page no
    /// one has faulted in yet, and a page fault inside a transaction aborts
    /// it and discards the fault — every retry aborts again, for good
    /// (seen in a debug build: 500 of 500 attempts of a one-load region).
    /// Inlined, these few instructions live in `tx_read` / `tx_write`,
    /// which the fallback path executes.
    #[inline(always)]
    pub(crate) fn rtm_read(&self, ptr: *const AtomicU64) -> u64 {
        debug_assert_eq!(self.rt.backend(), Backend::Rtm, "Tx::read outside a region");
        unsafe { (*ptr).load(Ordering::Relaxed) }
    }

    /// `Tx::write` inside a hardware transaction: a plain store the
    /// silicon buffers, and a note that the commit must move the clock.
    #[inline(always)]
    pub(crate) fn rtm_write(&mut self, ptr: *const AtomicU64, v: u64) {
        debug_assert_eq!(
            self.rt.backend(),
            Backend::Rtm,
            "Tx::write outside a region"
        );
        self.hw_wrote = true;
        unsafe { (*ptr).store(v, Ordering::Relaxed) };
    }
}
