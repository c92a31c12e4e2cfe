// fisheye_cli — command-line correction utility.
//
//   ./fisheye_cli [input.(pgm|ppm|bmp)] --out corrected.ppm
//       [--lens LENS_SPEC]  equidistant|equisolid|orthographic|stereographic|
//                           rectilinear|kannala_brandt:k1=..|division:lambda=..
//                           with optional ,fov=<deg> (core/model_spec.hpp)
//       [--view VIEW_SPEC]  perspective[:fov=..]|cylindrical[:hfov=..]|
//                           equirect[:hfov=..,vfov=..]|quadview[:fov=..,tilt=..]
//       [--fov 180] [--out-width W] [--out-height H] [--out-focal F]
//       [--interp nearest|bilinear|bicubic|lanczos3]
//       [--border constant|replicate|reflect] [--fill 0]
//       [--backend SPEC] [--threads N]
//       [--map float|packed|compact[:stride]|otf] [--frac-bits 14] [--stats]
//       [--save-map maps.femap]   (persist the precomputed warp LUT)
//       [--list-backends]         (print every registered backend kind with
//                                  its options, including valid map= formats)
//
// SPEC is a BackendRegistry spec, e.g. cpu:steal,tiles,datapath=gather,
// serial, pool:dynamic,threads=4, simd, cell:spes=8, fpga (needs --map
// packed or compact), gpu, cluster:ranks=8. serial, pool and simd are
// aliases of cpu (--list-backends shows their translations), and --stats
// prints the canonical cpu: spec. Backends that convert the map themselves
// take a spec option instead, e.g. pool:map=compact:8 against the default
// float map.
// --threads N is shorthand for appending threads=N to the spec.
//
// Without an input file a synthetic 720p fisheye test frame is corrected
// (so the tool demonstrates itself with zero assets).
#include <exception>
#include <iostream>
#include <string>

#include "core/backend_registry.hpp"
#include "core/corrector.hpp"
#include "core/map_io.hpp"
#include "image/io_bmp.hpp"
#include "image/io_pnm.hpp"
#include "runtime/stats.hpp"
#include "util/args.hpp"
#include "video/pipeline.hpp"

namespace {

using namespace fisheye;

core::Interp parse_interp(const std::string& name) {
  if (name == "nearest") return core::Interp::Nearest;
  if (name == "bilinear") return core::Interp::Bilinear;
  if (name == "bicubic") return core::Interp::Bicubic;
  if (name == "lanczos3") return core::Interp::Lanczos3;
  throw InvalidArgument("--interp: unknown kernel '" + name + "'");
}

img::BorderMode parse_border(const std::string& name) {
  if (name == "constant") return img::BorderMode::Constant;
  if (name == "replicate") return img::BorderMode::Replicate;
  if (name == "reflect") return img::BorderMode::Reflect;
  throw InvalidArgument("--border: unknown mode '" + name + "'");
}

struct MapRequest {
  core::MapMode mode = core::MapMode::FloatLut;
  int compact_stride = 8;
};

MapRequest parse_map(const std::string& name) {
  if (name == "float") return {core::MapMode::FloatLut, 8};
  if (name == "packed") return {core::MapMode::PackedLut, 8};
  if (name == "otf") return {core::MapMode::OnTheFly, 8};
  if (name == "compact") return {core::MapMode::CompactLut, 8};
  if (name.rfind("compact:", 0) == 0) {
    const std::string tail = name.substr(8);
    int stride = 0;
    try {
      std::size_t used = 0;
      stride = std::stoi(tail, &used);
      if (used != tail.size()) stride = 0;
    } catch (const std::exception&) {
      stride = 0;
    }
    if (stride < 1 || stride > 64 || (stride & (stride - 1)) != 0)
      throw InvalidArgument("--map: bad compact stride '" + tail +
                            "' (want a power of two in [1, 64])");
    return {core::MapMode::CompactLut, stride};
  }
  throw InvalidArgument("--map: unknown mode '" + name + "'");
}

img::Image8 load_input(const util::Args& args) {
  if (!args.positional().empty()) {
    const std::string& path = args.positional().front();
    if (path.size() > 4 && path.substr(path.size() - 4) == ".bmp")
      return img::read_bmp(path);
    return img::read_pnm(path);
  }
  std::cout << "no input given; using a synthetic 1280x720 fisheye frame\n";
  const auto cam = core::FisheyeCamera::centered(
      core::LensKind::Equidistant, util::kPi, 1280, 720);
  return video::SyntheticVideoSource(cam, 1280, 720, 3).frame(0);
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Args args(argc, argv);
  if (args.get_bool("help")) {
    std::cout << "usage: " << args.program()
              << " [input.pgm|ppm|bmp] --out FILE [options]\n"
                 "see the header of examples/fisheye_cli.cpp for the full "
                 "option list.\n";
    return 0;
  }
  if (args.get_bool("list-backends")) {
    for (const auto& [kind, summary] : core::BackendRegistry::instance().help())
      std::cout << kind << "\n    " << summary << "\n";
    return 0;
  }

  const img::Image8 input = load_input(args);
  const std::string out_path = args.get("out", "corrected.ppm");

  const MapRequest map_request = parse_map(args.get("map", "float"));
  core::Corrector::Builder builder(input.width(), input.height());
  builder.lens(core::LensSpec::parse(args.get("lens", "equidistant")))
      .view(core::ViewSpec::parse(args.get("view", "perspective")))
      .output_size(args.get_int("out-width", 0),
                   args.get_int("out-height", 0))
      .output_focal(args.get_double("out-focal", 0.0))
      .interp(parse_interp(args.get("interp", "bilinear")))
      .border(parse_border(args.get("border", "constant")),
              static_cast<std::uint8_t>(args.get_int("fill", 0)))
      .map_mode(map_request.mode)
      .compact_stride(map_request.compact_stride)
      .frac_bits(args.get_int("frac-bits", 14));
  // --fov overrides the lens spec's field of view; 0/absent keeps it.
  if (args.get_double("fov", 0.0) > 0.0)
    builder.fov_degrees(args.get_double("fov", 0.0));
  const core::Corrector corrector = builder.build();
  if (corrector.compact() != nullptr)
    std::cout << "compact map: stride " << corrector.compact()->stride
              << ", " << corrector.compact()->bytes() / 1024 << " KiB, max "
              << corrector.compact()->max_error << " px reconstruction "
              << "error\n";

  if (args.has("save-map")) {
    const std::string map_path = args.get("save-map", "map.femap");
    // Stamp the file with the models that built it, so a later load under
    // a different calibration is refused instead of silently remapping.
    const core::MapProvenance prov{corrector.config().lens.name(),
                                   corrector.config().view.name()};
    if (corrector.compact() != nullptr) {
      core::save_map(map_path, *corrector.compact(), prov);
      std::cout << "saved compact warp map to " << map_path << " (lens="
                << prov.lens << ", view=" << prov.view << ")\n";
    } else if (corrector.map() != nullptr) {
      core::save_map(map_path, *corrector.map(), prov);
      std::cout << "saved warp map to " << map_path << " (lens=" << prov.lens
                << ", view=" << prov.view << ")\n";
    }
  }

  std::string spec = args.get("backend", "serial");
  const int threads = args.get_int("threads", -1);
  if (threads >= 0)
    spec += (spec.find(':') == std::string::npos ? ":" : ",") +
            ("threads=" + std::to_string(threads));
  const std::unique_ptr<core::Backend> backend =
      core::BackendRegistry::create(spec);

  img::Image8 output(corrector.config().out_width,
                     corrector.config().out_height, input.channels());
  // Plan once (prepare), then run the steady-state path — the structure a
  // video loop would use; --stats times only the per-frame execute.
  const core::Corrector::Prepared prepared =
      corrector.prepare(*backend, input.channels());
  if (args.get_bool("stats")) {
    const rt::RunStats stats = rt::measure(
        [&] { corrector.correct(prepared, input.view(), output.view()); },
        7);
    std::cout << backend->name() << ": " << stats.median * 1e3
              << " ms/frame (" << 1.0 / stats.median << " fps)\n";
  } else {
    corrector.correct(prepared, input.view(), output.view());
  }

  if (out_path.size() > 4 && out_path.substr(out_path.size() - 4) == ".bmp")
    img::write_bmp(out_path, output.view());
  else
    img::write_pnm(out_path, output.view());
  std::cout << "wrote " << out_path << " (" << output.width() << 'x'
            << output.height() << ")\n";
  return 0;
} catch (const fisheye::Error& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
