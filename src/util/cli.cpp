#include "util/cli.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

namespace flh::cli {

ArgScan::ArgScan(int argc, char** argv, std::string tool, std::string usage)
    : argc_(argc), argv_(argv), tool_(std::move(tool)), usage_(std::move(usage)) {}

bool ArgScan::next() {
    while (++i_ < argc_) {
        arg_ = argv_[i_];
        if (arg_ == "--help" || arg_ == "-h") {
            std::cout << usage_;
            std::exit(0);
        }
        return true;
    }
    return false;
}

std::string ArgScan::value() {
    if (i_ + 1 >= argc_) usageError("missing value after " + arg_);
    return argv_[++i_];
}

std::vector<std::string> ArgScan::list() {
    const std::string flag = arg_;
    std::vector<std::string> items = splitTrim(value(), ',');
    if (items.empty()) usageError("empty list for " + flag);
    return items;
}

void ArgScan::usageError(const std::string& msg) const {
    std::cerr << tool_ << ": " << msg << "\n" << usage_;
    std::exit(2);
}

bool CommonFlags::tryParse(ArgScan& scan) {
    if (parse_threads && scan.is("--threads")) {
        threads = scan.num<unsigned>();
        threads_set = true;
    } else if (scan.is("--trace")) trace_path = scan.value();
    else if (scan.is("--metrics")) metrics_path = scan.value();
    else if (scan.is("--out")) out_flag = scan.value();
    else if (scan.is("--quiet")) quiet = true;
    else return false;
    return true;
}

void writeFileOrDie(const std::string& tool, const std::string& path,
                    const std::string& bytes) {
    // Export paths routinely point into not-yet-created run directories
    // ("--bench-json runA/BENCH_x.json"); create them like the bench
    // writers do rather than dying on the first fresh checkout.
    const std::filesystem::path parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (out) out << bytes;
    if (!out) {
        std::cerr << tool << ": cannot write " << path << "\n";
        std::exit(1);
    }
}

} // namespace flh::cli
