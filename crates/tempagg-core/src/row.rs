//! The values of one result row, stored inline.
//!
//! A temporal aggregate is output-bound: `n` tuples yield up to `2n + 1`
//! constant intervals, each carrying one value per select-list entry. A
//! `Vec<Value>` per interval makes every one of them a heap allocation on
//! the way out of the kernel and a deallocation when the result drops.
//! [`RowValues`] keeps up to [`ROW_INLINE_WIDTH`] values inside the row
//! itself and spills to a `Vec` only past that, so a narrow row travels
//! kernel → sink → result without touching the allocator and a result of
//! such rows drops as the one buffer that holds them. It reads as the
//! slice it dereferences to: `Debug`, equality (also against a
//! `Vec<Value>`) and ordering are the slice's.

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;

/// Values a [`RowValues`] holds inline. A row costs `8 + 24 × width`
/// bytes whether or not it fills them, and serving a cached series is
/// bound by the bytes of result it writes, so the width is the select
/// list the engine serves most — two aggregates — not the widest typed
/// list (DESIGN.md §17 has the measurement).
pub const ROW_INLINE_WIDTH: usize = 2;

/// One value per select-list entry of a result row: inline up to
/// [`ROW_INLINE_WIDTH`], a spilled `Vec` past it.
#[derive(Clone)]
pub struct RowValues(Repr);

#[derive(Clone)]
enum Repr {
    /// `slots[..len]` are the row; the rest stay `Null`.
    Inline {
        len: u8,
        slots: [Value; ROW_INLINE_WIDTH],
    },
    Spilled(Vec<Value>),
}

impl RowValues {
    /// An empty row; allocates nothing.
    #[inline]
    pub const fn new() -> RowValues {
        RowValues(Repr::Inline {
            len: 0,
            slots: [const { Value::Null }; ROW_INLINE_WIDTH],
        })
    }

    /// An empty row with room for `width` values: inline when they fit,
    /// one exact allocation when they do not.
    #[inline]
    pub fn with_capacity(width: usize) -> RowValues {
        if width > ROW_INLINE_WIDTH {
            RowValues(Repr::Spilled(Vec::with_capacity(width)))
        } else {
            RowValues::new()
        }
    }

    /// Append one value, spilling to the heap when the inline slots are
    /// full.
    #[inline]
    pub fn push(&mut self, value: Value) {
        match &mut self.0 {
            Repr::Inline { len, slots } => match slots.get_mut(usize::from(*len)) {
                Some(slot) => {
                    *slot = value;
                    *len += 1;
                }
                None => self.spill(value),
            },
            Repr::Spilled(values) => values.push(value),
        }
    }

    /// Move a full inline row to the heap and append `value`. Out of line:
    /// [`push`](Self::push) must stay small enough to inline into
    /// row-building loops.
    #[cold]
    fn spill(&mut self, value: Value) {
        let mut spilled = Vec::with_capacity(2 * ROW_INLINE_WIDTH);
        if let Repr::Inline { slots, .. } = &mut self.0 {
            spilled.extend(slots.iter_mut().map(std::mem::take));
        }
        spilled.push(value);
        self.0 = Repr::Spilled(spilled);
    }
}

impl Default for RowValues {
    fn default() -> RowValues {
        RowValues::new()
    }
}

impl Deref for RowValues {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline { len, slots } => slots.get(..usize::from(*len)).unwrap_or(slots),
            Repr::Spilled(values) => values,
        }
    }
}

impl FromIterator<Value> for RowValues {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> RowValues {
        let iter = iter.into_iter();
        let mut row = RowValues::with_capacity(iter.size_hint().0);
        for value in iter {
            row.push(value);
        }
        row
    }
}

/// A row that already lives in a `Vec`: kept as the spill when it is
/// wider than the inline slots, moved inline (and the `Vec` freed)
/// otherwise.
impl From<Vec<Value>> for RowValues {
    fn from(values: Vec<Value>) -> RowValues {
        if values.len() > ROW_INLINE_WIDTH {
            RowValues(Repr::Spilled(values))
        } else {
            values.into_iter().collect()
        }
    }
}

impl<'a> IntoIterator for &'a RowValues {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for RowValues {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for RowValues {
    #[inline]
    fn eq(&self, other: &RowValues) -> bool {
        **self == **other
    }
}

impl Eq for RowValues {}

impl PartialEq<Vec<Value>> for RowValues {
    fn eq(&self, other: &Vec<Value>) -> bool {
        **self == **other
    }
}

impl PartialEq<RowValues> for Vec<Value> {
    fn eq(&self, other: &RowValues) -> bool {
        **self == **other
    }
}

impl PartialOrd for RowValues {
    fn partial_cmp(&self, other: &RowValues) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RowValues {
    fn cmp(&self, other: &RowValues) -> Ordering {
        (**self).cmp(&**other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(n: usize) -> Vec<Value> {
        (0..n).map(|i| Value::Int(i as i64)).collect()
    }

    fn spilled(row: &RowValues) -> bool {
        matches!(row.0, Repr::Spilled(_))
    }

    #[test]
    fn rows_stay_inline_up_to_the_width_and_spill_past_it() {
        for n in 0..=ROW_INLINE_WIDTH + 3 {
            let want = ints(n);
            let mut pushed = RowValues::new();
            for v in &want {
                pushed.push(v.clone());
            }
            let collected: RowValues = want.iter().cloned().collect();
            // An iterator that hides its length takes the push path.
            let unsized_hint: RowValues = want.iter().filter(|_| true).cloned().collect();
            let converted = RowValues::from(want.clone());
            for row in [&pushed, &collected, &unsized_hint, &converted] {
                assert_eq!(row.len(), n);
                assert_eq!(**row, *want, "width {n}");
                assert_eq!(spilled(row), n > ROW_INLINE_WIDTH, "width {n}");
            }
        }
    }

    #[test]
    fn a_spilled_row_keeps_growing() {
        let mut row: RowValues = ints(ROW_INLINE_WIDTH).into();
        assert!(!spilled(&row));
        row.push(Value::from("over"));
        assert!(spilled(&row));
        row.push(Value::Null);
        let mut want = ints(ROW_INLINE_WIDTH);
        want.extend([Value::from("over"), Value::Null]);
        assert_eq!(row, want);
    }

    #[test]
    fn equality_reads_through_to_the_slice() {
        for n in [0, 1, ROW_INLINE_WIDTH, ROW_INLINE_WIDTH + 1] {
            let want = ints(n);
            let row = RowValues::from(want.clone());
            assert_eq!(row, want);
            assert_eq!(want, row);
            assert_eq!(row, row.clone());
            let mut longer = want.clone();
            longer.push(Value::Null);
            assert_ne!(row, longer);
            assert_ne!(row, RowValues::from(longer));
        }
        // Unused inline slots never take part.
        let mut short = RowValues::new();
        short.push(Value::Int(1));
        assert_ne!(short, vec![Value::Int(1), Value::Null]);
        // `Value` equality is the total order's: NaN equals itself.
        assert_eq!(
            RowValues::from(vec![Value::Float(f64::NAN)]),
            vec![Value::Float(f64::NAN)]
        );
    }

    #[test]
    fn debug_and_ordering_are_the_slices() {
        let rows: Vec<Vec<Value>> = vec![
            vec![],
            vec![Value::Null],
            vec![Value::Int(1)],
            vec![Value::Int(1), Value::Int(0)],
            vec![Value::Int(1), Value::Int(0), Value::from("x")],
            vec![Value::Int(2)],
            vec![
                Value::Float(2.5),
                Value::Bool(true),
                Value::Null,
                Value::Int(9),
            ],
        ];
        for a in &rows {
            let ra = RowValues::from(a.clone());
            assert_eq!(format!("{ra:?}"), format!("{a:?}"));
            assert_eq!(format!("{ra:#?}"), format!("{:#?}", &a[..]));
            for b in &rows {
                let rb = RowValues::from(b.clone());
                assert_eq!(ra.cmp(&rb), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(ra.partial_cmp(&rb), a.partial_cmp(b));
            }
        }
    }

    #[test]
    fn iterates_by_reference() {
        let row = RowValues::from(ints(3));
        let seen: Vec<&Value> = (&row).into_iter().collect();
        assert_eq!(seen.len(), 3);
        assert!(RowValues::default().is_empty());
    }
}
