// Fixture for TestSurfaces: two kernels, so flexcl's default (the first
// kernel) and its -kernel lookup both run.
__kernel void scale(__global const float* in, __global float* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = 3.0f * in[i];
    }
}

__kernel void blur3(__global const float* in, __global float* out, int n) {
    int i = get_global_id(0);
    if (i > 0 && i < n - 1) {
        out[i] = (in[i - 1] + in[i] + in[i + 1]) / 3.0f;
    }
}
