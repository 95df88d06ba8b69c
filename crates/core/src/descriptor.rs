//! Access descriptors — the arguments of the `Validate` call (Figure 3).

use dsm::{Pod, SharedSlice};
use rsd::Rsd;

/// Access type of a descriptor (paper §3.2).
///
/// The two `*All` types are the direct-access refinements: the compiler
/// proved every element of the section is written, so the run-time can
/// skip twinning — and ship whole pages instead of (stacked, overlapping)
/// diffs, the mechanism behind the paper's moldyn data reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessType {
    Read,
    Write,
    ReadWrite,
    WriteAll,
    ReadWriteAll,
}

impl AccessType {
    pub fn reads(self) -> bool {
        matches!(
            self,
            AccessType::Read | AccessType::ReadWrite | AccessType::ReadWriteAll
        )
    }

    pub fn writes(self) -> bool {
        !matches!(self, AccessType::Read)
    }

    pub fn whole_pages(self) -> bool {
        matches!(self, AccessType::WriteAll | AccessType::ReadWriteAll)
    }

    /// The spelling used in the paper's figures (for `fcc` codegen).
    pub fn fortran_name(self) -> &'static str {
        match self {
            AccessType::Read => "READ",
            AccessType::Write => "WRITE",
            AccessType::ReadWrite => "READ&WRITE",
            AccessType::WriteAll => "WRITE_ALL",
            AccessType::ReadWriteAll => "READ&WRITE_ALL",
        }
    }
}

/// Type-erased view of a shared region: what `Validate` needs to map
/// element indices to pages (the `base` argument of Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionRef {
    pub base: usize,
    pub len: usize,
    pub elem: usize,
}

impl RegionRef {
    pub fn of<T: Pod>(s: &SharedSlice<T>) -> Self {
        RegionRef {
            base: s.base_byte(),
            len: s.len(),
            elem: T::SIZE,
        }
    }

    /// Pages occupied by elements `lo..=hi : stride` (zero-based).
    pub fn pages_of(&self, lo: i64, hi: i64, stride: i64, page_size: usize) -> rsd::PageSet {
        rsd::pages_of_section(self.base, self.elem, lo, hi, stride, page_size)
    }

    /// Page holding element `i` (elements here never straddle pages:
    /// regions are page-aligned and element sizes divide the page size,
    /// which is a power of two).
    #[inline]
    pub fn page_of_elem(&self, i: usize, page_size: usize) -> u32 {
        debug_assert!(page_size.is_power_of_two());
        ((self.base + i * self.elem) >> page_size.trailing_zeros()) as u32
    }
}

/// One access descriptor.
///
/// Sections use *one-based, inclusive* Fortran bounds, matching the
/// paper's figures and the `fcc` front end that generates them.
#[derive(Debug, Clone)]
pub enum Desc {
    /// Regular access: `section` is a 1-D section of `data` itself.
    Direct {
        data: RegionRef,
        section: Rsd,
        access: AccessType,
        sched: u32,
    },
    /// Irregular access: `data[ind[j]]` for `j` in `section` (a section
    /// *of the indirection array*; may be multi-dimensional, interpreted
    /// column-major over `ind_dims` as in Fortran).
    Indirect {
        data: RegionRef,
        ind: SharedSlice<i32>,
        /// Fortran shape of the indirection array, e.g. `[2, n]` for
        /// `interaction_list(2, n)`.
        ind_dims: Vec<usize>,
        section: Rsd,
        access: AccessType,
        sched: u32,
    },
}

impl Desc {
    pub fn access(&self) -> AccessType {
        match self {
            Desc::Direct { access, .. } | Desc::Indirect { access, .. } => *access,
        }
    }

    pub fn sched(&self) -> u32 {
        match self {
            Desc::Direct { sched, .. } | Desc::Indirect { sched, .. } => *sched,
        }
    }
}

/// Enumerate the flat (zero-based, column-major) element indices of a
/// one-based multi-dimensional section over an array of shape `dims`.
///
/// `interaction_list[1:2, 5:6]` over shape `[2, n]` yields `8, 9, 10, 11`.
pub fn flat_indices(section: &Rsd, dims: &[usize]) -> Vec<usize> {
    assert_eq!(section.rank(), dims.len(), "section rank != array rank");
    // Column-major strides.
    let mut strides = vec![1usize; dims.len()];
    for k in 1..dims.len() {
        strides[k] = strides[k - 1] * dims[k - 1];
    }
    let mut out = Vec::with_capacity(section.len());
    // Iterate with the FIRST dimension fastest (column-major enumeration
    // gives ascending flat indices for dense sections).
    let dim_lens: Vec<usize> = section.dims.iter().map(|d| d.len()).collect();
    let total: usize = dim_lens.iter().product();
    for mut k in 0..total {
        let mut flat = 0usize;
        for (dno, d) in section.dims.iter().enumerate() {
            let l = dim_lens[dno].max(1);
            let step = k % l;
            k /= l;
            let idx1 = d.lo + step as i64 * d.stride; // one-based
            debug_assert!(idx1 >= 1 && (idx1 as usize) <= dims[dno]);
            flat += (idx1 as usize - 1) * strides[dno];
        }
        out.push(flat);
    }
    out
}

/// The flat indices of `section` as one contiguous range, when it has
/// one: every dimension before the first partial one is whole, that one
/// is dense, and every later one has extent 1 — the shape of
/// `interaction_list[1:2, lo:hi]` and of any dense 1-D section. Yields
/// exactly what [`flat_indices`] would, without materialising it.
pub(crate) fn flat_range(section: &Rsd, dims: &[usize]) -> Option<std::ops::Range<usize>> {
    assert_eq!(section.rank(), dims.len(), "section rank != array rank");
    if section.is_empty() {
        return Some(0..0);
    }
    let (mut lo, mut stride, mut len) = (0usize, 1usize, 1usize);
    let mut whole_so_far = true;
    for (d, &n) in section.dims.iter().zip(dims) {
        let k = d.len();
        if k > 1 && (!whole_so_far || d.stride != 1) {
            return None;
        }
        debug_assert!(d.lo >= 1 && (d.lo as usize - 1) + k <= n);
        lo += (d.lo as usize - 1) * stride;
        whole_so_far &= k == n;
        stride *= n;
        len *= k;
    }
    Some(lo..lo + len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsd::Dim;

    #[test]
    fn access_type_predicates() {
        assert!(AccessType::Read.reads() && !AccessType::Read.writes());
        assert!(AccessType::WriteAll.writes() && AccessType::WriteAll.whole_pages());
        assert!(AccessType::ReadWriteAll.reads());
        assert!(!AccessType::ReadWrite.whole_pages());
        assert_eq!(AccessType::ReadWrite.fortran_name(), "READ&WRITE");
    }

    #[test]
    fn flat_indices_2d_column_major() {
        // interaction_list(2, 10): section [1:2, 5:6]
        let sec = Rsd::new(vec![Dim::dense(1, 2), Dim::dense(5, 6)]);
        let idx = flat_indices(&sec, &[2, 10]);
        assert_eq!(idx, vec![8, 9, 10, 11]);
    }

    #[test]
    fn flat_indices_1d() {
        let sec = Rsd::new(vec![Dim::dense(3, 6)]);
        assert_eq!(flat_indices(&sec, &[100]), vec![2, 3, 4, 5]);
    }

    #[test]
    fn flat_range_matches_flat_indices_when_contiguous() {
        let dims = [3usize, 4, 5];
        let dim_choices = |n: i64| {
            let mut v = vec![Dim::new(1, 0, 1)];
            for lo in 1..=n {
                for hi in lo..=n {
                    for stride in 1..=2 {
                        v.push(Dim::new(lo, hi, stride));
                    }
                }
            }
            v
        };
        let (d0, d1, d2) = (dim_choices(3), dim_choices(4), dim_choices(5));
        let mut contiguous = 0;
        for a in &d0 {
            for b in &d1 {
                for c in &d2 {
                    let sec = Rsd::new(vec![*a, *b, *c]);
                    let flats = flat_indices(&sec, &dims);
                    match flat_range(&sec, &dims) {
                        Some(r) => {
                            contiguous += 1;
                            assert_eq!(r.collect::<Vec<_>>(), flats, "{sec:?}");
                        }
                        None => assert!(
                            flats.windows(2).any(|w| w[1] != w[0] + 1),
                            "{sec:?} is contiguous but got no range"
                        ),
                    }
                }
            }
        }
        assert!(contiguous > 100);
        // The kernels' shape: whole leading dimension, partial trailing.
        let sec = Rsd::new(vec![Dim::dense(1, 2), Dim::dense(5, 6)]);
        assert_eq!(flat_range(&sec, &[2, 10]), Some(8..12));
    }

    #[test]
    fn flat_indices_strided() {
        let sec = Rsd::new(vec![Dim::new(1, 9, 4)]); // 1,5,9 one-based
        assert_eq!(flat_indices(&sec, &[10]), vec![0, 4, 8]);
    }
}
