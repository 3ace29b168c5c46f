//! Wall-time spans: a guard records its lifetime into a per-phase
//! histogram on drop, and into the thread's trace collector when one is
//! attached.
//!
//! Guards carry their own start time and histogram handle — there is no
//! mandatory thread-local span stack — so nesting is unrestricted and
//! dropping guards out of order can never panic or misattribute time;
//! each span simply reports its own wall time.
//!
//! When a [`crate::trace::Collector`] is attached to the thread
//! ([`crate::trace::attach`]), each guard additionally carries a span
//! id linked to its innermost open parent and appends a
//! [`crate::trace::SpanRecord`] to the collector on drop. The trace
//! stack tolerates out-of-order drops (ids are removed by value, not
//! popped), so the guarantee above still holds.

use std::time::Instant;

use crate::metrics::Histogram;

/// An open span; drop it to record. Created by [`crate::span!`] or
/// [`Span::enter`].
#[must_use = "a span measures until it is dropped; binding to _ drops immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: &'static str,
    hist: &'static Histogram,
    start: Instant,
    /// Present when a trace collector was attached at open time.
    trace: Option<crate::trace::OpenSpan>,
}

impl Span {
    /// Opens a span named `name` recording into `hist()` on drop.
    /// When span timing is disabled ([`crate::set_enabled`]) the guard
    /// is inert and `hist` is never called.
    pub fn enter(name: &'static str, hist: impl FnOnce() -> &'static Histogram) -> Span {
        if !crate::enabled() {
            return Span { inner: None };
        }
        Span {
            inner: Some(SpanInner {
                name,
                hist: hist(),
                trace: crate::trace::open_span(),
                start: Instant::now(),
            }),
        }
    }

    /// Whether this guard will record on drop.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let elapsed = inner.start.elapsed();
        inner.hist.record(elapsed.as_secs_f64());
        if let Some(open) = inner.trace {
            crate::trace::close_span(open, inner.name, inner.start, elapsed);
        }
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("name", &self.inner.as_ref().map(|i| i.name))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn span_records_on_drop() {
        let _guard = crate::test_enabled_lock();
        let hist = metrics::histogram("nvmllc_test_span_seconds", "test span");
        let before = hist.count();
        {
            let _span = Span::enter("test_span", || hist);
        }
        assert_eq!(hist.count() - before, 1);
    }

    #[test]
    fn span_macro_derives_metric_name() {
        let _guard = crate::test_enabled_lock();
        let before = metrics::histogram("nvmllc_macro_span_seconds", "x").count();
        {
            let _span = crate::span!("macro_span");
        }
        let hist = metrics::histogram("nvmllc_macro_span_seconds", "x");
        assert_eq!(hist.count() - before, 1);
    }

    #[test]
    fn out_of_order_guard_drops_never_panic() {
        let _guard = crate::test_enabled_lock();
        let hist = metrics::histogram("nvmllc_test_nesting_seconds", "test nesting");
        let before = hist.count();
        let outer = Span::enter("outer", || hist);
        let inner = Span::enter("inner", || hist);
        let innermost = Span::enter("innermost", || hist);
        // Drop in scrambled order: outer first, then innermost, then inner.
        drop(outer);
        drop(innermost);
        drop(inner);
        assert_eq!(hist.count() - before, 3);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = crate::test_enabled_lock();
        crate::set_enabled(false);
        let span = Span::enter("off", || unreachable!("hist must not be built"));
        assert!(!span.is_recording());
        drop(span);
        crate::set_enabled(true);
    }
}
