//! **Fig. 2** — one FRA refinement step, made visible.
//!
//! The paper's Fig. 2 illustrates a single refinement: the position
//! with the maximum local error is selected (node D inside Δ ABC) and
//! the Delaunay rules retriangulate. This demo executes exactly one
//! such step on a small instance and prints the triangulation before
//! and after, with the local-error field that drove the choice.

use cps_core::osd::LocalErrorGrid;
use cps_field::{Field, GaussianBlob, Parallelism};
use cps_geometry::{GridSpec, Point2, Rect, Triangulation};

fn print_triangles(dt: &Triangulation) {
    for (n, tri) in dt.triangles().iter().enumerate() {
        let g = dt.triangle_geometry(*tri);
        println!(
            "  triangle {n}: ({:.0},{:.0}) ({:.0},{:.0}) ({:.0},{:.0})  area {:.0}",
            g.a.x,
            g.a.y,
            g.b.x,
            g.b.y,
            g.c.x,
            g.c.y,
            g.area()
        );
    }
}

fn main() {
    let region = Rect::square(20.0).unwrap();
    let grid = GridSpec::new(region, 21, 21).unwrap();
    // A single off-centre bump: the obvious refinement target.
    let field = GaussianBlob::isotropic(Point2::new(13.0, 7.0), 10.0, 2.5);

    // Table 1 line 1: the region split into two triangles along the
    // diagonal (the four corners).
    let mut dt = Triangulation::new(region);
    let mut samples = Vec::new();
    for c in region.corners() {
        dt.insert(c).unwrap();
        samples.push(field.value(c));
    }

    println!("=== Fig. 2: one refinement step ===\n");
    println!("before (Fig. 2(b) — the two initial triangles):");
    print_triangles(&dt);

    let errors = LocalErrorGrid::new(grid, &field, &dt, &samples, Parallelism::serial());
    let (pick, err) = errors.argmax(&[]).expect("grid has candidates");
    println!(
        "\nmax local error {err:.2} at ({:.0}, {:.0}) — the paper's node D",
        pick.x, pick.y
    );
    assert!(
        pick.distance(Point2::new(13.0, 7.0)) < 2.0,
        "the pick should land on the bump"
    );

    dt.insert(pick).unwrap();
    samples.push(field.value(pick));
    println!("\nafter (Fig. 2(d) — Delaunay retriangulation around D):");
    print_triangles(&dt);
    println!(
        "\ntriangle count 2 -> {}, still Delaunay: {}",
        dt.triangle_count(),
        dt.is_delaunay(1e-9)
    );

    // And the error under D collapsed.
    let mut after = LocalErrorGrid::new(grid, &field, &dt, &samples, Parallelism::serial());
    after.mark_used(pick);
    let (next, next_err) = after.argmax(&[]).expect("candidates remain");
    println!(
        "next-best candidate: ({:.0}, {:.0}) with error {next_err:.2} (was {err:.2})",
        next.x, next.y
    );
}
