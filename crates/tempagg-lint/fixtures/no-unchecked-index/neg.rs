//@ crate: tempagg-algo
//! Negative fixture for `no-unchecked-index`: iterator rewrites, justified
//! allows (the `indexing` alias), indexing outside loops, non-hot-path
//! crates, and a test module after a guarded match arm all stay clean.

pub fn sum_pairs(xs: &[i64], ys: &[i64]) -> i64 {
    xs.iter().zip(ys).map(|(x, y)| x + y).sum()
}

pub fn justified(perm: &[usize], out: &mut [usize]) {
    for (i, &p) in perm.iter().enumerate() {
        // lint: allow(indexing): perm is a permutation of 0..len, so p < out.len()
        out[p] = i;
    }
}

pub fn outside_a_loop(xs: &[i64]) -> i64 {
    xs[0]
}

pub fn guarded(r: Result<u8, u8>) -> Option<u8> {
    match r {
        Ok(v) => Some(v),
        Err(e) if e == 2 => return None,
        Err(_) => Some(0),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn indexes_in_a_loop() {
        let xs = [1, 2, 3];
        for i in 0..xs.len() {
            assert!(xs[i] > 0);
        }
    }
}
