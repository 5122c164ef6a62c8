//! The deposits a locality makes into its peer's step, as wire images that
//! are written and read in place (DESIGN §5.3). A halo deposit is the image
//! of a `Vec<(u64, Vec<f64>)>` — each leaf position the peer's gathers
//! read, with its interior — and a blocks deposit the image of a
//! `Vec<(u64, BlockSoA)>`, each owned leaf's P2M blocks; neither value is
//! ever built. The send nodes write the images from the leaves and the block
//! table straight into the request frame ([`HaloImage`], [`BlocksImage`]);
//! the in-nodes read the frame the deposit arrived in ([`halo_entries`],
//! [`blocks_entries`]), all of it before any entry is used, and copy each
//! entry into its leaf or table slot ([`copy_values`]).

use std::ops::Deref;

use distrib::{Encode, Reader, Wire, WireError, Writer};

use crate::gravity::{BlockSoA, BLOCKS};
use crate::star::NF;
use crate::subgrid::{SubGrid, CELLS};

/// The image of a `Vec<(u64, Vec<f64>)>`: the leaf at each of `positions`,
/// lent by `leaf`, with its interior, written from the leaf in place.
pub(crate) struct HaloImage<'a, F> {
    pub(crate) positions: &'a [usize],
    pub(crate) leaf: F,
}

impl<F, G> Encode for HaloImage<'_, F>
where
    F: Fn(usize) -> G,
    G: Deref<Target = SubGrid>,
{
    fn image_len(&self) -> usize {
        4 + self.positions.len() * (8 + 4 + 8 * NF * CELLS)
    }

    fn encode(&self, out: &mut Writer) {
        write_entries(out, self.positions, |pos, out| {
            (self.leaf)(pos).interior().encode(out);
        });
    }
}

/// The image of a `Vec<(u64, BlockSoA)>`: each of `positions` with its entry
/// of `table`, written from the table in place.
pub(crate) struct BlocksImage<'a> {
    pub(crate) positions: &'a [usize],
    pub(crate) table: &'a [BlockSoA],
}

impl Encode for BlocksImage<'_> {
    fn image_len(&self) -> usize {
        4 + self.positions.len() * (8 + BlockSoA::MIN_BYTES)
    }

    fn encode(&self, out: &mut Writer) {
        write_entries(out, self.positions, |pos, out| self.table[pos].encode(out));
    }
}

/// Write the image of a `Vec<(u64, T)>`: the count of `positions`, then each
/// position with the image of its `T`, which `value` writes.
fn write_entries(out: &mut Writer, positions: &[usize], value: impl Fn(usize, &mut Writer)) {
    u32::try_from(positions.len())
        .expect("a leaf count fits its count")
        .encode(out);
    for &pos in positions {
        (pos as u64).encode(out);
        value(pos, out);
    }
}

/// The values of a `Vec<f64>` image, borrowed: one 8-byte image each.
pub(crate) type Values<'a> = &'a [[u8; 8]];

/// A halo image's entries, read in place: each leaf position with its
/// values. The whole image is read, bytes left over refused, before any
/// entry is returned.
pub(crate) fn halo_entries(image: &[u8]) -> Result<Vec<(u64, Values<'_>)>, WireError> {
    read_entries(image, values)
}

/// A blocks image's entries, read in place: each leaf position with its
/// lanes in wire order ([`BlockSoA::lanes_mut`]), each of [`BLOCKS`] values.
/// The whole image is read, as by [`halo_entries`].
pub(crate) fn blocks_entries(image: &[u8]) -> Result<Vec<(u64, [Values<'_>; 4])>, WireError> {
    read_entries(image, |r| {
        let mut lane = || match values(r)? {
            lane if lane.len() == BLOCKS => Ok(lane),
            _ => Err(WireError::BadLength),
        };
        Ok([lane()?, lane()?, lane()?, lane()?])
    })
}

/// Copy `values` into `into`, which has as many.
pub(crate) fn copy_values(into: &mut [f64], values: Values) {
    assert_eq!(into.len(), values.len(), "values to copy");
    for (value, image) in into.iter_mut().zip(values) {
        *value = f64::from_le_bytes(*image);
    }
}

/// The entries of a `Vec<(u64, T)>` image, each position with what `value`
/// reads of its `T` image; the image must end where the last entry does.
fn read_entries<'a, T>(
    image: &'a [u8],
    value: impl Fn(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<Vec<(u64, T)>, WireError> {
    let mut r = Reader::new(image);
    let count = u32::decode(&mut r)?;
    // Collected as read: a count the image cannot hold reserves nothing.
    let entries = (0..count)
        .map(|_| Ok((u64::decode(&mut r)?, value(&mut r)?)))
        .collect::<Result<_, WireError>>()?;
    r.end()?;
    Ok(entries)
}

/// A `Vec<f64>` image's values, borrowed where they lie.
fn values<'a>(r: &mut Reader<'a>) -> Result<Values<'a>, WireError> {
    let count = u32::decode(r)? as usize;
    let bytes = count.checked_mul(8).ok_or(WireError::BadLength)?;
    Ok(r.take(bytes)?.as_chunks().0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gravity::compute_blocks;
    use crate::star::RotatingStar;
    use distrib::to_bytes;

    /// Three leaves of the star, each with its own values.
    fn leaves() -> Vec<SubGrid> {
        (0..3)
            .map(|i| {
                let mut g = SubGrid::new([-0.2 + 0.1 * f64::from(i); 3], 0.025);
                g.init_from_model(&RotatingStar::paper_default());
                g
            })
            .collect()
    }

    /// The send-side views write the images of the owned values they stand
    /// for, byte for byte and with the same `image_len`, and the in-node
    /// readers give back every entry.
    #[test]
    fn views_write_the_wire_images_of_the_owned_types() {
        let grids = leaves();
        let table: Vec<BlockSoA> = grids.iter().map(compute_blocks).collect();
        for positions in [&[2, 0][..], &[1], &[]] {
            let halo = HaloImage {
                positions,
                leaf: |pos| &grids[pos],
            };
            let owned: Vec<(u64, Vec<f64>)> = (positions.iter())
                .map(|&pos| (pos as u64, grids[pos].interior_data()))
                .collect();
            let image = to_bytes(&halo).expect("encodes");
            assert_eq!(image, to_bytes(&owned).expect("encodes"), "{positions:?}");
            assert_eq!(halo.image_len(), image.len());
            assert_eq!(owned.image_len(), image.len());
            let read = halo_entries(&image).expect("reads");
            assert_eq!(read.len(), positions.len());
            for ((pos, values), (want_pos, want)) in read.into_iter().zip(&owned) {
                let mut got = vec![0.0; NF * CELLS];
                copy_values(&mut got, values);
                assert_eq!((pos, &got), (*want_pos, want));
            }

            let blocks = BlocksImage {
                positions,
                table: &table,
            };
            let owned: Vec<(u64, BlockSoA)> = (positions.iter())
                .map(|&pos| (pos as u64, table[pos].clone()))
                .collect();
            let image = to_bytes(&blocks).expect("encodes");
            assert_eq!(image, to_bytes(&owned).expect("encodes"), "{positions:?}");
            assert_eq!(blocks.image_len(), image.len());
            assert_eq!(owned.image_len(), image.len());
            let read = blocks_entries(&image).expect("reads");
            for ((pos, lanes), (want_pos, want)) in read.into_iter().zip(&owned) {
                let mut got = BlockSoA::zero();
                for (into, lane) in got.lanes_mut().into_iter().zip(lanes) {
                    copy_values(into, lane);
                }
                assert_eq!((pos, &got), (*want_pos, want));
            }
        }
    }

    /// An image cut short, one with bytes left over, and blocks with a lane
    /// of the wrong length do not read.
    #[test]
    fn images_that_do_not_read_are_refused() {
        let grids = leaves();
        let halo = HaloImage {
            positions: &[0, 1],
            leaf: |pos| &grids[pos],
        };
        let mut image = to_bytes(&halo).expect("encodes");
        image.push(0);
        assert_eq!(halo_entries(&image), Err(WireError::Trailing(1)));
        image.truncate(image.len() - 2);
        assert_eq!(halo_entries(&image), Err(WireError::Eof));
        let short = vec![(3u64, [vec![0.0; BLOCKS], vec![], vec![], vec![]])];
        let image = to_bytes(&short).expect("encodes");
        assert_eq!(blocks_entries(&image), Err(WireError::BadLength));
    }
}
