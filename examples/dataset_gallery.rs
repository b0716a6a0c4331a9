//! Render a gallery of the synthetic datasets: one catalog view and one
//! scene crop per class, written as PPM files plus a terminal preview.
//!
//! ```text
//! cargo run --release --example dataset_gallery [-- out_dir]
//! ```

use std::path::Path;
use taor::data::{nyu_set_subsampled, shapenet_set1, ObjectClass};
use taor::imgproc::io::write_ppm;
use taor::imgproc::RgbImage;

/// Coarse ASCII preview (luma ramp) for the terminal.
fn ascii_preview(img: &RgbImage, cols: u32) -> String {
    let ramp = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let rows = cols / 2;
    let mut out = String::new();
    for r in 0..rows {
        for c in 0..cols {
            let x = c * img.width() / cols;
            let y = r * img.height() / rows;
            let [red, g, b] = img.pixel(x, y);
            let luma = 0.299 * red as f32 + 0.587 * g as f32 + 0.114 * b as f32;
            out.push(ramp[(luma / 256.0 * ramp.len() as f32) as usize]);
        }
        out.push('\n');
    }
    out
}

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "gallery".to_string());
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    let catalog = shapenet_set1(2019);
    let scenes = nyu_set_subsampled(2019, 2);

    println!("writing gallery to {out_dir}/\n");
    for class in ObjectClass::ALL {
        let view = catalog.of_class(class).next().expect("every class has catalog views");
        let crop = scenes.of_class(class).next().expect("every class has crops");

        let v_path =
            Path::new(&out_dir).join(format!("{}_catalog.ppm", class.name().to_lowercase()));
        let c_path = Path::new(&out_dir).join(format!("{}_scene.ppm", class.name().to_lowercase()));
        write_ppm(&v_path, &view.image).expect("write catalog view");
        write_ppm(&c_path, &crop.image).expect("write scene crop");

        println!("{} — synset {} ({})", class.name(), class.synset().id, class.synset().gloss);
        println!("{}", ascii_preview(&view.image, 40));
    }
    println!("wrote {} PPM files", 2 * ObjectClass::ALL.len());
}
