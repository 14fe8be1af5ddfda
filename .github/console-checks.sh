# Negative controls of the `pemplate` console entry point: bad input exits
# with the stated code, naming the field or the file, with no traceback and
# no output directory left behind. Then what importing `pemplate.cli` does
# (README, "Start-up and exit"). Source it from bash, with `set -e` in
# force, the repository root as the working directory and RUNNER_TEMP
# naming a scratch directory:
#
#     . .github/console-checks.sh
#
# It also defines fails(), for the caller's own controls.

fails() {  # command, config, exit code, text stderr must hold
  rc=0; pemplate "$1" --config "$2" --out "$RUNNER_TEMP/fails" 2> "$RUNNER_TEMP/fails.err" || rc=$?
  test "$rc" -eq "$3"
  grep -qF "$4" "$RUNNER_TEMP/fails.err"
  if grep -q Traceback "$RUNNER_TEMP/fails.err"; then exit 1; fi
  # a failed run removes what it wrote and the directory it made
  test ! -e "$RUNNER_TEMP/fails"
}

# corrupted element mu parameters must fail the patch test
rc=0; pemplate patch-test --corrupt-mu || rc=$?
test "$rc" -eq 2
# an --out that names a file
touch "$RUNNER_TEMP/afile"
rc=0; pemplate modes --preset paper-square --out "$RUNNER_TEMP/afile" || rc=$?
test "$rc" -eq 1
# a config that is a directory, and a number that is not finite
fails modes "$RUNNER_TEMP" 1 "is unreadable"
sed 's/^rho = .*/rho = nan/' src/pemplate/presets/paper-square.cfg > "$RUNNER_TEMP/nan.cfg"
fails modes "$RUNNER_TEMP/nan.cfg" 1 "config field [material] rho = 'nan' is not finite"
sed 's/^point = .*/point = 5 5/' src/pemplate/presets/clamped-demo.cfg > "$RUNNER_TEMP/off.cfg"
fails simulate "$RUNNER_TEMP/off.cfg" 1 "[simulation] point 5 5 lies outside the mesh"
# a [bc] group the mesh does not have fails at the mesh stage
sed 's/^group = .*/group = nosuch/' benchmarks/tests/tiny.cfg > "$RUNNER_TEMP/group.cfg"
fails pipeline "$RUNNER_TEMP/group.cfg" 1 "[stage mesh] config field [bc] group: boundary condition references unknown edge group 'nosuch'"
# the simulation takes its step from steps_per_period: dt is no key
awk '{print} /^magnitude = /{print "dt = 1.0"}' src/pemplate/presets/clamped-demo.cfg > "$RUNNER_TEMP/dt.cfg"
fails simulate "$RUNNER_TEMP/dt.cfg" 1 "unknown key 'dt' in [simulation]"
# mesh files: a negative header count, no triangles, and a fold (node 30
# of the n = 4 crossed square moved across its cell's right side)
printf 'nodes -1 triangles 0 groups 0\n' > "$RUNNER_TEMP/neg.mesh"
printf 'nodes 0 triangles 0 groups 1\ngroup boundary\n' > "$RUNNER_TEMP/empty.mesh"
python -c 'import sys; from pemplate.mesh import generate_structured_square as g, save_mesh; save_mesh(g(4), sys.argv[1])' "$RUNNER_TEMP/square.mesh"
sed '32s/^0.375 0.375$/0.6 0.375/' "$RUNNER_TEMP/square.mesh" > "$RUNNER_TEMP/folded.mesh"
for mesh in neg empty folded; do
  sed "s|^path = .*|path = $RUNNER_TEMP/$mesh.mesh|" src/pemplate/presets/clamped-demo.cfg > "$RUNNER_TEMP/$mesh.cfg"
done
fails modes "$RUNNER_TEMP/neg.cfg" 1 "neg.mesh:1: negative count in header"
fails modes "$RUNNER_TEMP/empty.cfg" 1 "empty.mesh: mesh has no triangles"
fails modes "$RUNNER_TEMP/folded.cfg" 1 "folded.mesh: edge (7, 30) runs the same way in two triangles"
# a rigidity whose bending matrix underflows fails at load, naming the field
sed 's/^rigidity = .*/rigidity = 5e-324/' benchmarks/tests/tiny.cfg > "$RUNNER_TEMP/rigid.cfg"
fails pipeline "$RUNNER_TEMP/rigid.cfg" 1 "config field [material] rigidity must be large enough"
# a capacitance that decouples the tuned pair fails tuning, before any
# simulation runs
sed 's/^capacitance = .*/capacitance = 1e300/' benchmarks/tests/tiny.cfg > "$RUNNER_TEMP/cap.cfg"
fails tune "$RUNNER_TEMP/cap.cfg" 1 "zero electromechanical coupling"
# importing pemplate.cli freezes the import-time objects and leaves the
# collector as the importer had it
python -c 'import gc, pemplate.cli; assert gc.isenabled() and gc.get_freeze_count() > 0'
python -c 'import gc; gc.disable(); import pemplate.cli; assert not gc.isenabled()'
# it leaves numpy's f2py unexecuted, and a deferred submodule works on first use
python -c 'import sys, pemplate.cli; assert "numpy.f2py.crackfortran" not in sys.modules'
python -c 'import pemplate.cli, numpy as np; np.testing.assert_array_equal(np.arange(2), [0, 1])'
